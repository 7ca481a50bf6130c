"""Exact arithmetic in GF(p^r) and linear algebra over it.

A field element is one int in [0, q), q = p^r.  Its base-p digits,
least significant first, are the coefficients on the power basis 1, t,
..., t^(r-1), so over the prime field an element is just its residue.
The prime field uses plain modular arithmetic; an extension field reads
exponent, logarithm and Zech logarithm tables built once per field
(Lidl-Niederreiter, Finite Fields, ch. 2), which is why extension
fields are bounded by q <= MAX_EXTENSION_ORDER.  Coefficient lists
appear only at the file boundary: to_coeffs writes them, and
modchar.repfile's decoder reads them.  Contexts, matrices and subspaces
are immutable and hash and compare by value.

Matrix work runs as whole-row operations, on one of two row kernels
chosen by the field alone:
- over GF(2) (q = 2) each row is one int, bit j for column j, so adding
  a row is one XOR (the M4RI layout: Albrecht, Bard, Hart, ACM TOMS
  37(1), 2010).  Matrices and subspaces keep these ints and build their
  tuple rows only when a caller reads them.
- over every other field rows are int lists (_sparse, _axpy, _product):
  int sums reduced mod p once per entry at r = 1, loops over the
  exp/log/Zech tables at r > 1.  A matrix builds the sparse form it is
  read in as a right factor once and keeps it.
Both eliminate by insertion: rows enter an echelon keyed by pivot
column one at a time, a row that reduces to zero is dropped, and
back-substitution then runs among the pivot rows only.  RREF is
canonical, so both kernels give the same subspace bases; the tests
check the packed one against the list one on tuple rows.
"""

from __future__ import annotations

import functools
import itertools

from . import Frozen, is_prime


class FieldError(ValueError):
    """Invalid field parameters or illegal element operation."""


class DimensionError(ValueError):
    """Shape mismatch between matrices, vectors or subspaces."""


# Largest order q = p^r admitted for an extension field (r > 1).  It keeps
# the per-field tables O(q) and the irreducibility search short: the
# largest admitted field, GF(251^2), builds its tables in under a second.
MAX_EXTENSION_ORDER = 1 << 16


def _check_field(p: int, r: int) -> None:
    """FieldError unless GF(p^r) is admitted; runs before any search."""
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if not 1 <= r <= 8:
        raise FieldError(f"extension degree r = {r} outside supported range 1..8")
    if r > 1 and p**r > MAX_EXTENSION_ORDER:
        raise FieldError(
            f"GF({p}^{r}) has order {p**r}, above the extension-field bound "
            f"q <= MAX_EXTENSION_ORDER = {MAX_EXTENSION_ORDER}"
        )


# -- polynomial helpers over F_p (coefficient tuples, constant term first) --


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


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
    _check_field(p, r)
    if r == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=r):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible of degree {r} over F_{p}")  # unreachable


def _mulmod(a, b, modulus, p):
    """a * b in F_p[t] / (modulus), on length-r coefficient lists."""
    r = len(modulus) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for e in range(2 * r - 2, r - 1, -1):  # t^e = -t^(e-r) (modulus - t^r)
        c = prod[e] % p
        if c:
            for i in range(r):
                prod[e - r + i] -= c * modulus[i]
    return [x % p for x in prod[:r]]


def _digits(a: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        a, c = divmod(a, p)
        out.append(c)
    return out


@functools.lru_cache(maxsize=8)
def _log_tables(p: int, r: int, modulus: tuple[int, ...]):
    """(exp, log, zech) of GF(p^r) = F_p[t] / (modulus) for the least
    primitive element g.

    exp[k] = g^k, stored twice over so a sum of two logs indexes it
    without a reduction; log[a] for a != 0; zech[k] = log(1 + g^k), or
    -1 where 1 + g^k = 0.  zech is read at differences of two logs,
    which may be negative: Python's negative index then reads
    zech[k + q - 1], the same power of g.  The cache is bounded, so a
    process holds at most eight fields' tables, and shares them
    immutable between contexts."""
    order = p**r - 1
    one = [1] + [0] * (r - 1)

    def power(g, e):
        out = one
        for bit in bin(e)[2:]:
            out = _mulmod(out, out, modulus, p)
            if bit == "1":
                out = _mulmod(out, g, modulus, p)
        return out

    # g is primitive iff g^(order / l) != 1 for every prime l | order; no
    # element of F_p is primitive when r > 1
    primes = [
        d for d in range(2, order + 1) if order % d == 0 and all(d % e for e in range(2, d))
    ]
    g = next(
        g
        for g in (_digits(x, p, r) for x in range(p, order + 1))
        if all(power(g, order // ell) != one for ell in primes)
    )
    weights = [p**i for i in range(r)]
    exp, log, cur = [], [0] * (order + 1), one
    for k in range(order):
        x = sum(c * w for c, w in zip(cur, weights))
        exp.append(x)
        log[x] = k
        cur = _mulmod(cur, g, modulus, p)
    zech = []
    for x in exp:
        one_plus = x - x % p + (x + 1) % p  # adds 1 to the constant digit
        zech.append(log[one_plus] if one_plus else -1)
    return tuple(exp + exp), tuple(log), tuple(zech)


class FieldCtx:
    """The field GF(p^r) presented as F_p[t] modulo a monic irreducible."""

    __slots__ = ("p", "r", "q", "modulus", "_exp", "_log", "_zech", "_neg_log")

    zero = 0
    one = 1

    def __init__(self, p: int, r: int = 1, modulus: tuple[int, ...] | None = None):
        if modulus is None:
            modulus = find_irreducible(p, r)  # checks the field
        else:
            _check_field(p, r)
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
        self.q = p**r
        self.modulus = modulus
        self._exp = self._log = self._zech = None
        if r > 1:
            self._exp, self._log, self._zech = _log_tables(p, r, modulus)
        # log(-1): -1 = g^((q-1)/2) for odd p, and -1 = 1 for p = 2
        self._neg_log = (self.q - 1) // 2 if p > 2 else 0

    def gen(self):
        if self.r == 1:
            raise FieldError("prime field has no extension generator")
        return self.p

    def scalar(self, c: int):
        """Embed an integer residue into the field."""
        return c % self.p

    def to_coeffs(self, a) -> list[int]:
        """Coefficients of a on 1, t, ..., t^(r-1)."""
        return _digits(a, self.p, self.r)

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]  # a + b = a (1 + b / a)
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if self.r == 1:
            return -a % self.p
        return self._exp[self._log[a] + self._neg_log] if a else 0

    def sub(self, a, b):
        if self.r == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def smul(self, c: int, a):
        return self.mul(c % self.p, a)

    def mul(self, a, b):
        if self.r == 1:
            return a * b % self.p
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        if not a:
            return 0 if e else 1
        if self.r == 1:
            return pow(a, e, self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

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
    """Immutable dense matrix over a FieldCtx (rows of field elements).

    Over GF(2) a matrix keeps its rows packed, one int per row with bit
    j for column j; its tuple rows are built on first read.  Over any
    other field it keeps its tuple rows and, on first use as a right
    factor, their sparse form."""

    __slots__ = ("ctx", "nrows", "ncols", "rows", "_bits", "_right")

    def __init__(self, ctx: FieldCtx, rows):
        rows = tuple(tuple(row) for row in rows)
        if any(len(row) != len(rows[0]) for row in rows):
            raise DimensionError("ragged rows")
        self._fill(ctx, rows)

    def _fill(self, ctx, rows):
        self.ctx, self.rows, self.nrows = ctx, rows, len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self._bits = tuple(map(_pack, rows)) if ctx.q == 2 else None

    @classmethod
    def _of(cls, ctx, rows):
        """Unchecked: rows is already a tuple of equal-length tuples."""
        out = object.__new__(cls)
        out._fill(ctx, rows)
        return out

    @classmethod
    def _packed(cls, ctx, bits, ncols):
        """A GF(2) matrix from its packed rows; like the tuple form, a
        matrix without rows has no columns."""
        out = object.__new__(cls)
        out.ctx, out._bits, out.nrows, out.ncols = ctx, bits, len(bits), ncols if bits else 0
        return out

    def __getattr__(self, name):
        # only unset slots get here: build the derived form once
        if name == "rows":
            value = tuple(_unpack(x, self.ncols) for x in self._bits)
        elif name == "_right":
            value = [_sparse(self.ctx, y) for y in self.rows]
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __reduce__(self):
        return (MatrixFF._of, (self.ctx, self.rows))

    @classmethod
    def identity(cls, ctx, n):
        if ctx.q == 2:
            return cls._packed(ctx, tuple(1 << i for i in range(n)), n)
        return cls._of(ctx, tuple(tuple([int(i == j) for j in range(n)]) for i in range(n)))

    def _check(self, other):
        if self.ctx != other.ctx:
            raise DimensionError("field context mismatch")

    def sub(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in sub")
        ctx = self.ctx
        if self._bits is not None:
            return MatrixFF._packed(ctx, tuple(map(int.__xor__, self._bits, other._bits)), self.ncols)
        minus, out = ctx.neg(1), []
        for r1, ys in zip(self.rows, other._right):
            out.append(list(r1))
            _axpy(ctx, out[-1], minus, ys)
        return MatrixFF._of(ctx, tuple(map(tuple, out)))

    def mul(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionError("shape mismatch in mul")
        if self._bits is not None:
            return MatrixFF._packed(self.ctx, _xor_product(self._bits, other._bits), other.ncols)
        return MatrixFF._of(self.ctx, _product(self.ctx, self.rows, other._right, other.ncols))

    def matvec(self, v):
        if len(v) != self.ncols:
            raise DimensionError("vector length mismatch")
        if self._bits is not None:
            x = _pack(v)
            return tuple((row & x).bit_count() & 1 for row in self._bits)
        return _product(self.ctx, (v,), [_sparse(self.ctx, y) for y in zip(*self.rows)], self.nrows)[0]

    def transpose(self):
        return MatrixFF._of(self.ctx, tuple(zip(*self.rows)))

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
        n1, n2 = self.ncols, other.ncols
        out = [list(row) + [0] * n2 for row in self.rows]
        out += [[0] * n1 + list(row) for row in other.rows]
        return MatrixFF(self.ctx, out)

    def pow_int(self, e: int):
        """self^e by squaring from the top bit down, starting at self: g^2
        is one product and g^3 two."""
        if self.nrows != self.ncols:
            raise DimensionError("pow of non-square matrix")
        if e < 0:
            raise ValueError("negative matrix power")
        if not e:
            return MatrixFF.identity(self.ctx, self.nrows)
        out = self
        for bit in bin(e)[3:]:
            out = out.mul(out)
            if bit == "1":
                out = out.mul(self)
        return out

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionError("inverse of non-square matrix")
        n, ctx = self.nrows, self.ctx
        if self._bits is not None:
            red = _xor_rref([x | 1 << n + i for i, x in enumerate(self._bits)])
            if red and (red[-1] & -red[-1]) >> n:
                raise FieldError("matrix is singular")
            return MatrixFF._packed(ctx, tuple(x >> n for x in red), n)
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        pivots, red = _rref(ctx, aug, 2 * n)
        if pivots != list(range(n)):
            raise FieldError("matrix is singular")
        return MatrixFF._of(ctx, tuple(tuple(row[n:]) for row in red))

    def rank(self):
        if self._bits is not None:
            return len(_xor_echelon(self._bits))
        return len(_echelon(self.ctx, [list(r) for r in self.rows], self.ncols))

    def __eq__(self, other):
        if not isinstance(other, MatrixFF) or self.ctx != other.ctx:
            return False
        if self._bits is not None:
            return self.ncols == other.ncols and self._bits == other._bits
        return self.rows == other.rows

    def __hash__(self):
        if self._bits is not None:
            return hash((self.ctx, self.ncols, self._bits))
        return hash((self.ctx, self.rows))

    def __repr__(self):
        return f"MatrixFF({self.nrows}x{self.ncols} over {self.ctx!r})"


def stack(mats) -> MatrixFF:
    """The rows of each matrix of a nonempty list in turn, over one field
    and of one width; packed rows stay packed."""
    ctx = mats[0].ctx
    if ctx.q == 2:
        return MatrixFF._packed(ctx, tuple(x for m in mats for x in m._bits), mats[0].ncols)
    return MatrixFF._of(ctx, tuple(row for m in mats for row in m.rows))


# -- the int-list row kernel, for every field --------------------------------


def _sparse(ctx, row, start=0):
    """(column, entry) for the nonzero entries of row from column start on,
    with the entry's log in place of the entry at r > 1."""
    pairs = [(c, y) for c, y in enumerate(row[start:], start) if y]
    return pairs if ctx.r == 1 else [(c, ctx._log[y]) for c, y in pairs]


def _axpy(ctx, xs, f, ys):
    """xs += f y in place, for f != 0 and y given by _sparse; at r > 1
    each entry is one exp lookup and one Zech-logarithm step."""
    if ctx.r == 1:
        p = ctx.p
        for c, y in ys:
            xs[c] = (xs[c] + f * y) % p
        return
    exp, log, zech = ctx._exp, ctx._log, ctx._zech
    lf = log[f]
    for c, ly in ys:
        w, x = exp[lf + ly], xs[c]
        if x:  # x + w = x (1 + w / x)
            lx = log[x]
            z = zech[log[w] - lx]
            w = exp[lx + z] if z >= 0 else 0
        xs[c] = w


def _product(ctx, left, right, n):
    """Rows of left times the n-column matrix whose rows, in _sparse form,
    are right (Gustavson): a times row k of right is added for each
    nonzero a at column k.  At r = 1 the sums stay ints, reduced mod p
    once per entry at the end."""
    out = []
    for row in left:
        acc = [0] * n
        if ctx.r == 1:
            for a, ys in zip(row, right):
                if a:
                    for c, y in ys:
                        acc[c] += a * y
            acc = [x % ctx.p for x in acc]
        else:
            for a, ys in zip(row, right):
                if a:
                    _axpy(ctx, acc, a, ys)
        out.append(tuple(acc))
    return tuple(out)


def _echelon(ctx, rows, n):
    """Insertion echelon of n-column lists, consumed: each row is reduced
    by the pivot rows it meets from the left, then kept with its leading
    entry scaled to 1, or dropped when it reaches zero.  Returns pivot
    column -> (row, its _sparse form from the pivot on)."""
    echelon = {}
    for x in rows:
        for j in range(n):  # x changes only at columns j and later
            a = x[j]
            if not a:
                continue
            pivot = echelon.get(j)
            if pivot is None:
                row = [0] * n
                _axpy(ctx, row, ctx.inv(a), _sparse(ctx, x, j))
                echelon[j] = row, _sparse(ctx, row, j)
                break
            _axpy(ctx, x, ctx.neg(a), pivot[1])
    return echelon


def _rref(ctx, rows, n):
    """Reduced row echelon form of n-column lists, consumed: (pivot
    columns ascending, their rows).  Back-substitution runs among the
    pivot rows only, from the last pivot up."""
    echelon = _echelon(ctx, rows, n)
    pivots = sorted(echelon)
    done = []  # (pivot, sparse row) of the reduced rows below
    for c in reversed(pivots):
        row = echelon[c][0]
        for c2, ys in done:
            if row[c2]:
                _axpy(ctx, row, ctx.neg(row[c2]), ys)
        done.append((c, _sparse(ctx, row, c)))
    return pivots, [echelon[c][0] for c in pivots]


def _null_basis(ctx, rows, n):
    """Canonical basis of {v : Mv = 0} for M with the n-column rows given,
    from -e_f plus column f of the pivot rows at the pivot columns, for
    each free column f."""
    pivots, red = _rref(ctx, [list(r) for r in rows], n)
    pivot_set, minus, vecs = set(pivots), ctx.neg(1), []
    for f in (j for j in range(n) if j not in pivot_set):
        v = [0] * n
        v[f] = minus
        for c, row in zip(pivots, red):
            v[c] = row[f]
        vecs.append(v)
    return tuple(map(tuple, _rref(ctx, vecs, n)[1]))


# -- GF(2) rows packed into ints, bit j for column j ---------------------------

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _pack(row) -> int:
    return int(bytes(row[::-1]).translate(_TO_DIGITS) or b"0", 2)


def _unpack(x: int, n: int) -> tuple:
    return tuple(f"{x:0{n}b}".encode()[::-1][:n].translate(_FROM_DIGITS))


def _bits_of(x: int):
    """The set bits of x, lowest first, each as a power of two."""
    while x:
        low = x & -x
        yield low
        x ^= low


def _xor_product(left, right):
    """Packed rows of left times the matrix with packed rows right: row k
    of right is XORed in for each set bit k."""
    out = []
    for x in left:
        acc = 0
        while x:
            low = x & -x
            acc ^= right[low.bit_length() - 1]
            x ^= low
        out.append(acc)
    return tuple(out)


def _xor_echelon(rows):
    """Insertion echelon of packed rows: lowest set bit -> row, a row
    being XORed with the kept row of its lowest bit until it is kept or
    zero.  A repeated row would reach zero, so it is skipped."""
    echelon = {}
    for x in dict.fromkeys(rows):
        while x:
            low = x & -x
            y = echelon.get(low)
            if y is None:
                echelon[low] = x
                break
            x ^= y
    return echelon


def _xor_rref(rows):
    """Reduced row echelon form of packed rows, in pivot order.  A pivot
    row reduced at every pivot above its own is zero at every other
    pivot, so XORing it in clears one bit of the rows above."""
    echelon = _xor_echelon(rows)
    pivots = sorted(echelon)
    above = 0  # the pivots already reduced
    for low in reversed(pivots):
        x = echelon[low]
        for bit in _bits_of(x & above):
            x ^= echelon[bit]
        echelon[low] = x
        above |= low
    return [echelon[low] for low in pivots]


def _xor_null_basis(rows, n):
    """_null_basis on packed rows: the kernel vector of free column f is
    e_f plus e_c for each pivot row c with bit f."""
    red = _xor_rref(rows)
    pivot_mask = 0
    for x in red:
        pivot_mask |= x & -x
    vecs = {bit: bit for bit in _bits_of((1 << n) - 1 & ~pivot_mask)}
    for x in red:
        c = x & -x
        for bit in _bits_of(x ^ c):
            vecs[bit] |= c
    return tuple(_xor_rref(vecs.values()))


class Subspace(Frozen):
    """Subspace of F_q^n held as a canonical reduced row-echelon basis
    (basis: a tuple of row vectors, tuples of field elements).

    Canonicality makes equality structural: two subspaces are equal as
    sets of vectors iff their basis tuples are equal.  A subspace is
    frozen: assigning to a field raises AttributeError.  Over GF(2) its
    basis is also kept packed, in the _bits slot, which is not a field.
    """

    _names = ("ctx", "ambient_dim", "basis")
    __slots__ = _names + ("_bits",)

    @classmethod
    def _packed(cls, ctx, n, bits):
        """A GF(2) subspace from its packed canonical basis."""
        out = cls._of(ctx, n, tuple(_unpack(x, n) for x in bits))
        object.__setattr__(out, "_bits", tuple(bits))
        return out

    def __getattr__(self, name):
        # only the unset _bits slot gets here: pack the basis once
        if name != "_bits":
            raise AttributeError(name)
        bits = tuple(map(_pack, self.basis))
        object.__setattr__(self, "_bits", bits)
        return bits

    @classmethod
    def from_vectors(cls, ctx, ambient_dim, vectors):
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionError("vector length != ambient dimension")
        if ctx.q == 2:
            return cls._packed(ctx, ambient_dim, _xor_rref(map(_pack, vecs)))
        return cls(ctx, ambient_dim, tuple(map(tuple, _rref(ctx, vecs, ambient_dim)[1])))

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
        if self.ctx.q == 2:
            return [(x & -x).bit_length() - 1 for x in self._bits]
        return [next(j for j, e in enumerate(row) if e) for row in self.basis]

    def reduce(self, v):
        """Residue of v modulo the subspace (zero iff v belongs to it)."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length != ambient dimension")
        ctx = self.ctx
        if ctx.q == 2:
            x = _pack(v)
            for row in self._bits:
                if x & row & -row:
                    x ^= row
            return _unpack(x, self.ambient_dim)
        w = list(v)
        for row, c in zip(self.basis, self.pivot_columns()):
            if w[c]:
                _axpy(ctx, w, ctx.neg(w[c]), _sparse(ctx, row))
        return tuple(w)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def membership_matrix(self) -> MatrixFF:
        """Matrix R with Rv = 0 iff v lies in the subspace: the identity
        with column c replaced by e_c - b for each basis row b of pivot c.
        So row c of R is zero, and each other row u has -b[u] at every
        pivot c."""
        ctx, n = self.ctx, self.ambient_dim
        if ctx.q == 2:
            rows = [1 << u for u in range(n)]
            for x in self._bits:
                c = x & -x
                rows[c.bit_length() - 1] = 0
                for bit in _bits_of(x ^ c):
                    rows[bit.bit_length() - 1] |= c
            return MatrixFF._packed(ctx, tuple(rows), n)
        minus = ctx.neg(1)
        cols = [[int(u == c) for u in range(n)] for c in range(n)]
        for row, c in zip(self.basis, self.pivot_columns()):
            _axpy(ctx, cols[c], minus, _sparse(ctx, row))
        return MatrixFF._of(ctx, tuple(zip(*cols)))

    def sum(self, other) -> "Subspace":
        if self.ctx != other.ctx or self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspace mismatch in sum")
        if self.ctx.q == 2:
            return Subspace._packed(self.ctx, self.ambient_dim, _xor_rref(self._bits + other._bits))
        return Subspace.from_vectors(
            self.ctx, self.ambient_dim, list(self.basis) + list(other.basis)
        )


def kernel(M: MatrixFF) -> Subspace:
    """Null space {v : Mv = 0} in canonical form."""
    if M._bits is not None:
        return Subspace._packed(M.ctx, M.ncols, _xor_null_basis(M._bits, M.ncols))
    return Subspace(M.ctx, M.ncols, _null_basis(M.ctx, dict.fromkeys(M.rows), M.ncols))


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
    return kernel(stack([s1.membership_matrix(), s2.membership_matrix()]))
