"""Exact arithmetic in GF(p^r) and linear algebra over it.

Field elements are coefficient tuples of length r (power basis 1, t, ...,
t^(r-1), each entry a residue in [0, p)).  For r = 1 an element is a
1-tuple holding a plain residue.  All operations are pure functions on
immutable values; contexts, matrices and subspaces hash and compare by
value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class FieldError(ValueError):
    """Invalid field parameters or illegal element operation."""


class DimensionError(ValueError):
    """Shape mismatch between matrices, vectors or subspaces."""


def is_int(x) -> bool:
    """True for a genuine integer: bool is an int subclass but not one here."""
    return isinstance(x, int) and not isinstance(x, bool)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- polynomial helpers over F_p (coefficient tuples, constant term first) --


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        a = list(_poly_trim(a))
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, mi in enumerate(m):
            a[i + shift] = (a[i + shift] - lead * mi) % p
    return _poly_trim(a)


def _is_irreducible(poly, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    poly = _poly_trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tail + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Candidates are ordered by their coefficient tuple (constant term
    first).  For r = 1 the convention is the polynomial t, so that
    elements of the prime field are plain residues.
    """
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if not 1 <= r <= 8:
        raise FieldError(f"extension degree r = {r} outside supported range 1..8")
    if r == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=r):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible of degree {r} over F_{p}")  # unreachable


class FieldCtx:
    """The field GF(p^r) presented as F_p[t] modulo a monic irreducible."""

    __slots__ = ("p", "r", "modulus", "_tpow", "_inv_cache")

    def __init__(self, p: int, r: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if not 1 <= r <= 8:
            raise FieldError(f"extension degree r = {r} outside supported range 1..8")
        if modulus is None:
            modulus = find_irreducible(p, r)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != r + 1 or modulus[r] != 1:
            raise FieldError("modulus must be monic of degree r")
        if r == 1:
            if modulus != (0, 1):
                raise FieldError("for r = 1 the modulus must be t")
        elif not _is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.r = r
        self.modulus = modulus
        # t^e mod modulus for e = r .. 2r-2, used to fold products back
        tpow = []
        cur = list(modulus[:r])  # t^r = -(lower part), monic
        cur = [(-c) % p for c in cur]
        for _ in range(r, 2 * r - 1):
            tpow.append(tuple(cur))
            nxt = [0] + cur[: r - 1]
            lead = cur[r - 1]
            if lead:
                for i in range(r):
                    nxt[i] = (nxt[i] - lead * modulus[i]) % p
            cur = nxt
        self._tpow = tuple(tpow)
        self._inv_cache: dict = {}

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def zero(self):
        return (0,) * self.r

    @property
    def one(self):
        return (1,) + (0,) * (self.r - 1)

    def gen(self):
        if self.r == 1:
            raise FieldError("prime field has no extension generator")
        return (0, 1) + (0,) * (self.r - 2)

    def scalar(self, c: int):
        """Embed an integer residue into the field."""
        return (c % self.p,) + (0,) * (self.r - 1)

    def from_coeffs(self, coeffs):
        if not isinstance(coeffs, (list, tuple)) or not all(map(is_int, coeffs)):
            raise FieldError(f"element {coeffs!r} is not a list of integer coefficients")
        if len(coeffs) != self.r:
            raise FieldError(f"element needs {self.r} coefficients, got {len(coeffs)}")
        return tuple(c % self.p for c in coeffs)

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.r):
            yield tup

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def smul(self, c: int, a):
        p = self.p
        c %= p
        return tuple(c * x % p for x in a)

    def mul(self, a, b):
        p, r = self.p, self.r
        if r == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        out = prod[:r]
        for e in range(r, 2 * r - 1):
            c = prod[e]
            if c:
                red = self._tpow[e - r]
                for i in range(r):
                    out[i] = (out[i] + c * red[i]) % p
        return tuple(out)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        cached = self._inv_cache.get(a)
        if cached is not None:
            return cached
        p = self.p
        if self.r == 1:
            out = (pow(a[0], p - 2, p),)
        else:
            # extended Euclid in F_p[t] on (a, modulus)
            r0, r1 = _poly_trim(a), self.modulus
            s0, s1 = (1,), ()
            while r1:
                lead_inv = pow(r1[-1], p - 2, p)
                q = [0] * (max(len(r0) - len(r1) + 1, 0))
                rem = list(r0)
                while len(_poly_trim(rem)) >= len(r1):
                    rem = list(_poly_trim(rem))
                    shift = len(rem) - len(r1)
                    coef = rem[-1] * lead_inv % p
                    q[shift] = coef
                    for i, c in enumerate(r1):
                        rem[i + shift] = (rem[i + shift] - coef * c) % p
                rem = _poly_trim(rem)
                qt = _poly_trim(q)
                r0, r1 = r1, rem
                new_s1 = _poly_trim(
                    [
                        (x - y) % p
                        for x, y in itertools.zip_longest(
                            s0, _poly_mul(qt, s1, p), fillvalue=0
                        )
                    ]
                )
                s0, s1 = s1, new_s1
            # r0 = gcd, a unit scalar since modulus irreducible
            c_inv = pow(r0[0], p - 2, p)
            s0 = _poly_mul(s0, (c_inv,), p)
            s0 = _poly_mod(s0, self.modulus, p)
            out = tuple(s0) + (0,) * (self.r - len(s0))
        self._inv_cache[a] = out
        return out

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r})"


class MatrixFF:
    """Immutable dense matrix over a FieldCtx (rows of element tuples)."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldCtx, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(row) for row in rows)
        ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != ncols for row in self.rows):
            raise DimensionError("ragged rows")

    @classmethod
    def identity(cls, ctx, n):
        z, o = ctx.zero, ctx.one
        return cls(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_ints(cls, ctx, rows):
        """Build from rows (lists) of integer entries or coefficient lists;
        booleans are not integers."""
        out = []
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise FieldError(f"row {row!r} is not a list")
            out.append([ctx.scalar(e) if is_int(e) else ctx.from_coeffs(e) for e in row])
        return cls(ctx, out)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def _check(self, other):
        if self.ctx != other.ctx:
            raise DimensionError("field context mismatch")

    def add(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in add")
        add = self.ctx.add
        return MatrixFF(
            self.ctx,
            [
                [add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def sub(self, other):
        self._check(other)
        sub = self.ctx.sub
        return MatrixFF(
            self.ctx,
            [
                [sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def mul(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionError("shape mismatch in mul")
        ctx = self.ctx
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        zero = ctx.zero
        for row in self.rows:
            new = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a != zero and b != zero:
                        acc = ctx.add(acc, ctx.mul(a, b))
                new.append(acc)
            out.append(new)
        return MatrixFF(ctx, out)

    def matvec(self, v):
        ctx = self.ctx
        if len(v) != self.ncols:
            raise DimensionError("vector length mismatch")
        zero = ctx.zero
        out = []
        for row in self.rows:
            acc = zero
            for a, b in zip(row, v):
                if a != zero and b != zero:
                    acc = ctx.add(acc, ctx.mul(a, b))
            out.append(acc)
        return tuple(out)

    def transpose(self):
        return MatrixFF(self.ctx, list(zip(*self.rows)))

    def kron(self, other):
        self._check(other)
        ctx = self.ctx
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append([ctx.mul(a, b) for a in r1 for b in r2])
        return MatrixFF(ctx, out)

    def block_diag(self, other):
        self._check(other)
        ctx = self.ctx
        z = ctx.zero
        n1, n2 = self.ncols, other.ncols
        out = [list(row) + [z] * n2 for row in self.rows]
        out += [[z] * n1 + list(row) for row in other.rows]
        return MatrixFF(ctx, out)

    def pow_int(self, e: int):
        if self.nrows != self.ncols:
            raise DimensionError("pow of non-square matrix")
        result = MatrixFF.identity(self.ctx, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base)
            e >>= 1
        return result

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionError("inverse of non-square matrix")
        n = self.nrows
        ident = MatrixFF.identity(self.ctx, n)
        aug = [list(r) + list(i) for r, i in zip(self.rows, ident.rows)]
        red, pivots = _rref(self.ctx, aug)
        if pivots != list(range(n)):
            raise FieldError("matrix is singular")
        return MatrixFF(self.ctx, [row[n:] for row in red])

    def rank(self):
        _, pivots = _rref(self.ctx, [list(r) for r in self.rows])
        return len(pivots)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        z, o = self.ctx.zero, self.ctx.one
        return all(
            e == (o if i == j else z)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def is_zero(self):
        z = self.ctx.zero
        return all(e == z for row in self.rows for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFF)
            and self.ctx == other.ctx
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def __repr__(self):
        return f"MatrixFF({self.nrows}x{self.ncols} over {self.ctx!r})"


def _rref(ctx, rows):
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    zero = ctx.zero
    pivots = []
    i = 0
    for j in range(ncols):
        k = next((k for k in range(i, m) if rows[k][j] != zero), None)
        if k is None:
            continue
        rows[i], rows[k] = rows[k], rows[i]
        pivot_inv = ctx.inv(rows[i][j])
        rows[i] = [ctx.mul(pivot_inv, x) for x in rows[i]]
        for k2 in range(m):
            if k2 != i and rows[k2][j] != zero:
                f = rows[k2][j]
                rows[k2] = [
                    ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[k2], rows[i])
                ]
        pivots.append(j)
        i += 1
        if i == m:
            break
    return rows, pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_q^n held as a canonical reduced row-echelon basis.

    Canonicality makes equality structural: two subspaces are equal as
    sets of vectors iff their basis tuples are equal field-wise.
    """

    ctx: FieldCtx
    ambient_dim: int
    basis: tuple  # tuple of row vectors (tuples of field elements)

    @classmethod
    def from_vectors(cls, ctx, ambient_dim, vectors):
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionError("vector length != ambient dimension")
        if not vecs:
            return cls(ctx, ambient_dim, ())
        red, pivots = _rref(ctx, vecs)
        rows = tuple(tuple(red[i]) for i in range(len(pivots)))
        return cls(ctx, ambient_dim, rows)

    @classmethod
    def full(cls, ctx, n):
        return cls(ctx, n, MatrixFF.identity(ctx, n).rows)

    @classmethod
    def zero_space(cls, ctx, n):
        return cls(ctx, n, ())

    @property
    def dim(self):
        return len(self.basis)

    def pivot_columns(self):
        zero = self.ctx.zero
        return [next(j for j, e in enumerate(row) if e != zero) for row in self.basis]

    def reduce(self, v):
        """Residue of v modulo the subspace (zero iff v belongs to it)."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length != ambient dimension")
        ctx = self.ctx
        w = list(v)
        for row, c in zip(self.basis, self.pivot_columns()):
            f = w[c]
            if f != ctx.zero:
                w = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(w, row)]
        return tuple(w)

    def contains(self, v) -> bool:
        zero = self.ctx.zero
        return all(e == zero for e in self.reduce(v))

    def is_subspace_of(self, other) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimension mismatch")
        return all(other.contains(row) for row in self.basis)

    def membership_matrix(self) -> MatrixFF:
        """Matrix R with Rv = 0 iff v lies in the subspace."""
        ctx = self.ctx
        n = self.ambient_dim
        ident = [list(r) for r in MatrixFF.identity(ctx, n).rows]
        for row, c in zip(self.basis, self.pivot_columns()):
            for u in range(n):
                ident[u][c] = ctx.sub(ident[u][c], row[u])
        # rows above: column c of R is e_c - b (b the basis row as a column)
        return MatrixFF(ctx, ident)

    def sum(self, other) -> "Subspace":
        if self.ctx != other.ctx or self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace mismatch in sum")
        return Subspace.from_vectors(
            self.ctx, self.ambient_dim, list(self.basis) + list(other.basis)
        )


def kernel(M: MatrixFF) -> Subspace:
    """Null space {v : Mv = 0} in canonical form."""
    ctx = M.ctx
    n = M.ncols
    red, pivots = _rref(ctx, [list(r) for r in M.rows])
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    vecs = []
    for f in free:
        v = [ctx.zero] * n
        v[f] = ctx.one
        for i, c in enumerate(pivots):
            v[c] = ctx.neg(red[i][f])
        vecs.append(v)
    return Subspace.from_vectors(ctx, n, vecs)


def preimage(M: MatrixFF, S: Subspace) -> Subspace:
    """{v : Mv in S}; contains kernel(M)."""
    if M.ctx != S.ctx:
        raise DimensionError("field context mismatch")
    if S.ambient_dim != M.nrows:
        raise DimensionError(
            f"subspace ambient {S.ambient_dim} != matrix rows {M.nrows}"
        )
    return kernel(S.membership_matrix().mul(M))


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ctx != s2.ctx or s1.ambient_dim != s2.ambient_dim:
        raise DimensionError("subspace mismatch in intersect")
    stacked = MatrixFF(
        s1.ctx,
        list(s1.membership_matrix().rows) + list(s2.membership_matrix().rows),
    )
    return kernel(stacked)


def solve(M: MatrixFF, b):
    """One solution x of Mx = b, or None when the system is inconsistent."""
    if len(b) != M.nrows:
        raise DimensionError("rhs length != matrix rows")
    ctx = M.ctx
    n = M.ncols
    aug = [list(r) + [e] for r, e in zip(M.rows, b)]
    red, pivots = _rref(ctx, aug)
    if n in pivots:
        return None
    x = [ctx.zero] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][n]
    return tuple(x)


def rank(M: MatrixFF) -> int:
    return M.rank()
