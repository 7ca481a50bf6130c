"""Power sums over all linear forms on F_p^n, Dickson invariants, and the
identities tying them to the classes of the basic representation (r = 1).

The class attached to y^k equals minus the k-th power sum of all dual
vectors, which places it inside the Dickson invariant ring.  Newton's
identity then pins the whole family: with D the total elementary
symmetric class of all dual vectors and A the alternating total of the
y-power classes, D * A collapses to the single term -D_{p^n - 1}.

Each side is computed one way here and checked against another:

- `chi_y_power`, the production route for every y^k class (the report
  here and `reps.chi_of_rep`), reads the class off the splitting
  formula of `chi.chi_basic` and converts it by `tensor_to_poly`, with
  the tuple of y-powers (b_1, ..., b_n) as the monomial
  z_1^b_1 ... z_n^b_n.
- `power_sum` is the oracle: it enumerates one linear form per line and
  raises it to the k-th power digit by digit through Frobenius, sharing
  no code with the splitting formula.  `verify`'s oracle and
  classification suites and the tests compare the two routes; the tests
  also compare `power_sum` with a multinomial identity and with a
  brute-force sum over every nonzero dual vector.  No production call
  runs it.
- `dickson_total` reads D off the Dickson recursion for the polynomial
  whose roots are all dual vectors, once per (p, n) in a process.
  `verify`'s Dickson suite compares every component with the expanded
  product of (1 + v) over all nonzero dual vectors v.  Newton's identity,
  the series-inverse route and the product signs thus compare the
  splitting formula with the Dickson recursion, which shares no code
  with it.

D has constant term 1, so it is a unit among power series: D * A =
-D_{p^n - 1} up to dmax holds exactly when A equals the quotient
-D_{p^n - 1} / D up to dmax.  The report's `newton` and `inverse` fields
are therefore one predicate, and both read one memoised quotient
(`chi_total_from_inverse`), so a report divides once.  The product form,
D * A truncated at dmax against -D_{p^n - 1}, is run by `verify`'s
Dickson suite at every grid point and by the tests, which never read the
quotient: Newton's identity keeps a route that multiplies.

Polynomials and total classes are one type, `MultiPoly`: a total class
simply holds all its degrees, and `components` splits it by degree.  One
packed product kernel (`_packed` and `_add_products`) serves its three
users: `MultiPoly.mul_truncated` (the plain product, and the product
truncated above a total degree that Newton's product form uses),
`series_quotient` and `MultiPoly.substitute`.  The inverse route never
builds D^{-1}: `series_quotient` divides -D_{p^n - 1} by D as power
series, one degree at a time, up to the report's degree.
`report` runs the identity checks once, for `modchar dickson` and for
`verify`'s Dickson suite alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from . import chi
from .mono import Monomial, SparseCombination, TensorClass, format_term


def _compositions(total: int, parts: int):
    """All tuples of `parts` naturals summing to `total`, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class IdentityFailure(ArithmeticError):
    """An exact polynomial identity that must hold failed to verify."""


class MultiPoly(SparseCombination):
    """Sparse multivariate polynomial over F_p; keys are exponent tuples.
    A total class is one of these holding all its degrees; `components`
    splits it into its homogeneous parts."""

    __slots__ = _names = ("p", "nvars", "terms")

    def _check_keys(self):
        for e in self.terms:
            if len(e) != self.nvars:
                raise ValueError("exponent vector length != nvars")

    @classmethod
    def zero(cls, p, nvars):
        return cls._of(p, nvars, {})

    @classmethod
    def const(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c})

    @property
    def components(self) -> dict:
        """Degree -> homogeneous part, for every degree with a term."""
        return {
            d: MultiPoly._of(self.p, self.nvars, terms)
            for d, terms in sorted(_by_degree(self.terms).items())
        }

    def component(self, d) -> "MultiPoly":
        return MultiPoly._of(
            self.p, self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def mul(self, other):
        return self.mul_truncated(other, math.inf)

    def mul_truncated(self, other, dmax):
        """The product with every term of total degree above dmax dropped.

        Both factors are packed once (`_packed`) in a base above the
        highest degree kept, so multiplying two monomials is one int
        addition; the product is summed one degree at a time, each degree
        in its own dict, and unpacked once at the end."""
        self._check(other)
        p, nvars = self.p, self.nvars
        top = min(dmax, sum(max(map(sum, f.terms), default=-1) for f in (self, other)))
        left, right = _packed(self.terms, nvars, top), _packed(other.terms, nvars, top)
        terms: dict = {}
        for d in sorted({d1 + d2 for d1 in left for d2 in right}):
            if d > top:
                break
            out: dict = {}
            for d1, pairs in left.items():
                if d - d1 in right:
                    _add_products(out, pairs, right[d - d1])
            terms.update((k, v) for k, c in out.items() if (v := c % p))
        return MultiPoly._of(p, nvars, _unpack(terms, top + 1, nvars))

    def pow(self, k):
        """self^k by squaring from the top bit down, starting at self:
        k = 6 takes three products."""
        if k < 0:
            raise ValueError("power k must be >= 0")
        if not k:
            return MultiPoly.const(self.p, self.nvars, 1)
        out = self
        for bit in bin(k)[3:]:
            out = out.mul(out)
            if bit == "1":
                out = out.mul(self)
        return out

    def substitute(self, rows, nvars_new):
        """Replace the i-th variable by the linear form with integer
        coefficient row rows[i] over nvars_new new variables.

        Each form's powers are built one product at a time, up to the
        highest power of its variable, and every term's product of powers
        is summed into one dict, all by `_add_products` on exponent tuples
        packed as in `_packed`, in a base above the highest total degree,
        which a substitution keeps."""
        if len(rows) != self.nvars:
            raise ValueError("need one substitution row per variable")
        if any(len(row) != nvars_new for row in rows):
            raise ValueError("substitution row length mismatch")
        p = self.p
        base = max(map(sum, self.terms), default=0) + 1

        def times(left, right):
            return [(k, v) for k, c in _add_products({}, left, right).items() if (v := c % p)]

        tables = []
        for i, row in enumerate(rows):
            form = [(base**j, c % p) for j, c in enumerate(row) if c % p]
            powers = [[(0, 1)]]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                powers.append(times(powers[-1], form))
            tables.append(powers)
        out: dict = {}
        for exps, c in self.terms.items():
            # a one-term power (a power of one variable, or e = 0) only
            # shifts and scales the term
            shift, scale, term = 0, c, [(0, 1)]
            for powers, e in zip(tables, exps):
                factor = powers[e]
                if len(factor) == 1:
                    [(k, a)] = factor
                    shift, scale = shift + k, scale * a
                else:
                    term = times(term, factor)
            for key, v in term:
                out[key + shift] = out.get(key + shift, 0) + v * scale
        return MultiPoly(p, nvars_new, _unpack(out, base, nvars_new))

    def render(self) -> str:
        """The terms in degree-graded order, lex-leading first within a
        degree, each as format_term of its factors z1 .. z_nvars."""
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), [-x for x in kv[0]])):
            text = " ".join(f"z{i}" if k == 1 else f"z{i}^{k}" for i, k in enumerate(e, 1) if k)
            parts.append(format_term(text, c))
        return " + ".join(parts) or "0"


def _by_degree(terms: dict) -> dict:
    """Total degree -> the terms of that degree."""
    out: dict = {}
    for e, c in terms.items():
        out.setdefault(sum(e), {})[e] = c
    return out


def _packed(terms: dict, nvars: int, top: int) -> dict:
    """Total degree -> [(packed exponent, coefficient)] for the terms of
    degree at most top, each exponent tuple packed into an int in base
    top + 1, so multiplying two monomials kept is one int addition."""
    place = [(top + 1) ** i for i in range(nvars)]
    return {
        d: [(sum(map(operator.mul, e, place)), c) for e, c in part.items()]
        for d, part in _by_degree(terms).items()
        if d <= top
    }


def _add_products(out: dict, left, right) -> dict:
    """Add the products of two lists of (packed exponent, coefficient)
    into out, unreduced, and return out: every MultiPoly product's loop."""
    for k1, c1 in left:
        for k2, c2 in right:
            key = k1 + k2
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _unpack(packed: dict, base: int, nvars: int) -> dict:
    """Exponent tuples back from ints written in the given base."""
    terms = {}
    for key, c in packed.items():
        e = []
        for _ in range(nvars):
            key, digit = divmod(key, base)
            e.append(digit)
        terms[tuple(e)] = c
    return terms


# -- power sums --------------------------------------------------------------


def _line_representatives(p: int, n: int):
    """One nonzero vector per line of F_p^n: its first nonzero entry is 1."""
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def power_sum(p: int, n: int, k: int) -> MultiPoly:
    """Sum of z^k over all p^n dual vectors z of F_p^n (the zero vector
    contributes nothing for k >= 1).

    The multiples c u (c in F_p^*) of one form u sum to (u . z)^k times
    the sum of c^k, which is -1 when p - 1 divides k and 0 otherwise; so
    the sum runs over one form per line.  Each form is raised to the
    k-th power one base-p digit k_t of k at a time: (u . z)^(k_t p^t) is
    a multinomial in the z_i^(p^t) with k_t < p, and the digits never
    collide, so only carry-free terms are built.  Every linear form is
    still enumerated and no class formula is used, which keeps this an
    independent check of the splitting formula (`verify`'s oracle
    suite)."""
    if k < 1:
        raise ValueError("power sums are defined for k >= 1")
    if k % (p - 1):
        return MultiPoly.zero(p, n)
    base = k + 1  # no exponent of (u . z)^k exceeds k
    place = [base**i for i in range(n)]
    # per nonzero digit k_t: (packed exponent of z^(p^t a), multinomial, a);
    # exact factorials, not coalg's Lucas code, which the splitting formula uses
    digits = []
    scale, rest = 1, k
    while rest:
        rest, kt = divmod(rest, p)
        if kt:
            digits.append(
                [
                    (
                        scale * sum(map(operator.mul, a, place)),
                        math.factorial(kt) // math.prod(map(math.factorial, a)) % p,
                        a,
                    )
                    for a in _compositions(kt, n)
                ]
            )
        scale *= p
    total: dict = {}
    for u in _line_representatives(p, n):
        expansion = {0: 1}
        for comps in digits:
            factor = []
            for shift, coeff, a in comps:
                for ui, ai in zip(u, a):
                    if ai:
                        coeff *= pow(ui, ai, p)
                if coeff % p:
                    factor.append((shift, coeff))
            expansion = {
                e + shift: c * coeff % p
                for e, c in expansion.items()
                for shift, coeff in factor
            }
        for e, c in expansion.items():
            total[e] = total.get(e, 0) + c
    return MultiPoly(p, n, _unpack(total, base, n)).neg()


def chi_y_power(p: int, n: int, k: int) -> MultiPoly:
    """The y^k class of the rank-n basic representation over F_p by the
    splitting formula (`chi.chi_basic`), read as a polynomial by
    `tensor_to_poly`; zero unless p - 1 divides k, as y^k is invariant
    only then.  It equals minus the k-th power sum (`power_sum`, the
    oracle)."""
    if k < 1:
        raise ValueError("y^k classes are defined for k >= 1")
    if n < 1:
        raise ValueError("rank n must be >= 1")
    if k % (p - 1):
        return MultiPoly.zero(p, n)
    return tensor_to_poly(chi.chi_basic(p, 1, Monomial((0,), (k,)), n))


def dickson_total(p: int, n: int) -> MultiPoly:
    """Product of (1 + z) over all dual vectors: total elementary
    symmetric class, nonzero only in degrees p^n - p^i (and 0).

    Built from F_j(X), the product of (X - v) over v in the span of
    z_1..z_j, by the Dickson recursion
    F_j(X) = F_{j-1}(X)^p - F_{j-1}(z_j)^(p-1) F_{j-1}(X).  Each F_j is a
    p-polynomial in X, and the degree p^n - p^i component is
    (-1)^(p^n - p^i) times the coefficient of X^(p^i) in F_n.  `verify`'s
    Dickson suite compares every component with the expanded product.
    The recursion runs once per (p, n) in a process (_dickson_terms); each
    call returns a fresh MultiPoly holding a copy of its terms."""
    return MultiPoly._of(p, n, dict(_dickson_terms(p, n)))


# shared by the n + 4 reads of one report and by later reports; bounded
# like chi's memo of splits
@lru_cache(maxsize=64)
def _dickson_terms(p: int, n: int) -> dict:
    """The terms of dickson_total(p, n), by the Dickson recursion."""
    # coeffs[i] is the coefficient of X^(p^i) in F_j(X); F_0(X) = X
    coeffs = [MultiPoly.const(p, n, 1)]
    for j in range(n):
        at_z = MultiPoly.zero(p, n)  # F_j(z_{j+1})
        for i, c in enumerate(coeffs):
            z_pow = tuple(p**i if v == j else 0 for v in range(n))
            at_z = at_z.add(c.mul(MultiPoly._of(p, n, {z_pow: 1})))
        shift = at_z.pow(p - 1)
        # F_j(X)^p: each coefficient to its p-th power, which over F_p
        # multiplies every exponent by p
        frobenius = [
            MultiPoly._of(p, n, {tuple(x * p for x in e): c for e, c in poly.terms.items()})
            for poly in coeffs
        ]
        coeffs = (
            [shift.mul(coeffs[0]).neg()]
            + [
                frobenius[i - 1].sub(shift.mul(coeffs[i]))
                for i in range(1, len(coeffs))
            ]
            + [frobenius[-1]]
        )
    q = p**n
    terms: dict = {}
    for i, c in enumerate(coeffs):
        terms.update(c.scale((-1) ** (q - p**i)).terms)
    return terms


def alternating_chi_total(p: int, n: int, dmax: int) -> MultiPoly:
    """Total class with degree-k component (-1)^k times the y^k class of
    the basic representation, k = 1..dmax.  Built once per (p, n, dmax)
    in a process (_alternating_terms); each call returns a fresh
    MultiPoly holding a copy of its terms."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    return MultiPoly._of(p, n, dict(_alternating_terms(p, n, dmax)))


# shared by Newton's identity and the inverse route of one report
@lru_cache(maxsize=64)
def _alternating_terms(p: int, n: int, dmax: int) -> dict:
    """The terms of alternating_chi_total(p, n, dmax)."""
    terms: dict = {}
    for k in range(1, dmax + 1):
        poly = chi_y_power(p, n, k)
        terms.update((poly.neg() if k % 2 else poly).terms)
    return terms


def newton_check(p: int, n: int, dmax: int) -> bool:
    """Newton's identity: D * A, truncated at dmax, is the single
    homogeneous term -D_{p^n - 1}.  D has constant term 1, so it is a
    unit among power series, and D * A = -D_{p^n - 1} up to dmax holds
    exactly when A equals the quotient -D_{p^n - 1} / D up to dmax.  So
    this is that comparison, with the memoised quotient of
    `chi_total_from_inverse`, and the report fills its `inverse` field
    from the same answer.  The product form, D.mul_truncated(A, dmax)
    == -D_{p^n - 1}, is run by `verify`'s Dickson suite and the tests,
    which never read the quotient."""
    if dmax < p**n - 1:
        raise ValueError("dmax must reach degree p^n - 1")
    return chi_total_from_inverse(p, n, dmax) == alternating_chi_total(p, n, dmax)


def series_quotient(num: MultiPoly, den: MultiPoly, dmax: int) -> MultiPoly:
    """The power series X with den * X = num up to degree dmax, for a den
    with constant term 1: exact power-series division, one degree at a
    time, X_d = num_d - sum over e > 0 of den_e X_(d - e).  No power of
    den and no term above dmax is ever formed.  Terms are packed by
    `_packed` in base dmax + 1 and unpacked once at the end."""
    den._check(num)
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    p, nvars = den.p, den.nvars
    if den.component(0) != MultiPoly.const(p, nvars, 1):
        raise ValueError("series quotient needs a denominator with constant term 1")
    numer, denom = _packed(num.terms, nvars, dmax), _packed(den.terms, nvars, dmax)
    # den_e negated, so each degree of X is one sum
    steps = [(e, [(k, -c) for k, c in pairs]) for e, pairs in sorted(denom.items()) if e]
    quotient: dict = {}  # degree -> packed terms of X in that degree
    for d in range(dmax + 1):
        out = dict(numer.get(d, ()))
        for e, pairs in steps:
            if e > d:
                break
            if d - e in quotient:
                _add_products(out, pairs, quotient[d - e])
        part = [(k, v) for k, c in out.items() if (v := c % p)]
        if part:
            quotient[d] = part
    packed = {k: c for part in quotient.values() for k, c in part}
    return MultiPoly._of(p, nvars, _unpack(packed, dmax + 1, nvars))


def chi_total_from_inverse(p: int, n: int, dmax: int) -> MultiPoly:
    """The alternating chi total recovered as -D_{p^n - 1} * D^{-1}, by
    dividing -D_{p^n - 1} by D as power series (series_quotient); D^{-1}
    itself is never built.  It reads only D, from the Dickson recursion,
    so it shares no code with the splitting formula.  The division runs
    once per (p, n, dmax) in a process (_quotient_terms): `newton_check`
    compares this same quotient with A, so the report's `newton` and
    `inverse` fields are one predicate decided by one division, and the
    product form D * A lives in `verify` and the tests.  Each call
    returns a fresh MultiPoly holding a copy of its terms."""
    if dmax < p**n - 1:
        raise ValueError("dmax must reach degree p^n - 1")
    return MultiPoly._of(p, n, dict(_quotient_terms(p, n, dmax)))


# shared by Newton's identity and the inverse route of one report
@lru_cache(maxsize=64)
def _quotient_terms(p: int, n: int, dmax: int) -> dict:
    """The terms of chi_total_from_inverse(p, n, dmax)."""
    d_total = dickson_total(p, n)
    return series_quotient(d_total.component(p**n - 1).neg(), d_total, dmax).terms


def product_identity_check(p: int, n: int, i: int) -> int:
    """Sign s with chi_{y^k} = s * D_{p^n-1} * D_{p^n-p^i} at
    k = 2 p^n - p^i - 1; raises when neither sign matches."""
    if not 0 <= i <= n:
        raise ValueError("index i must lie in [0, n]")
    k = 2 * p**n - p**i - 1
    lhs = chi_y_power(p, n, k)
    d_total = dickson_total(p, n)
    rhs = d_total.component(p**n - 1).mul(d_total.component(p**n - p**i))
    if lhs == rhs:
        return 1
    if lhs == rhs.neg():
        return -1
    raise IdentityFailure(
        f"chi_(y^{k}) does not match +-D_({p**n - 1})D_({p**n - p**i}) "
        f"for p={p}, n={n}, i={i}"
    )


def report(p: int, n: int, dmax: int) -> dict:
    """The Dickson identity report: sparsity of the total class D,
    Newton's identity, the series-inverse route, and the sign of each
    product identity by i (its failure message where neither sign
    holds), with every component of D rendered, by degree.  `newton` and
    `inverse` are one predicate, as D is a unit (see `newton_check`):
    both fields stay, filled from one comparison of the quotient with A.
    `modchar dickson` prints the report and `verify`'s Dickson suite
    checks it, together with Newton's identity in product form."""
    q = p**n
    components = dickson_total(p, n).components
    sparsity = set(components) <= {q - p**i for i in range(n + 1)} | {0}
    newton = inverse = newton_check(p, n, dmax)
    signs: dict = {}
    for i in range(n + 1):
        try:
            signs[str(i)] = product_identity_check(p, n, i)
        except IdentityFailure as exc:
            signs[str(i)] = str(exc)
    return {
        "p": p,
        "n": n,
        "dmax": dmax,
        "sparsity": sparsity,
        "newton": newton,
        "inverse": inverse,
        "product_signs": signs,
        "components": {str(d): poly.render() for d, poly in components.items()},
        "ok": sparsity and newton and inverse and all(s in (1, -1) for s in signs.values()),
    }


def nonzero_chi_degrees(p: int, n: int) -> list[int]:
    """All k <= 2(p^n - 1) with nonzero y^k class of the basic
    representation (companion scan to the product identities)."""
    return [
        k
        for k in range(1, 2 * (p**n - 1) + 1)
        if not chi_y_power(p, n, k).is_zero()
    ]


def tensor_to_poly(tc: TensorClass) -> MultiPoly:
    """Identify a pure-polynomial tensor class over the prime field with
    a polynomial: the tuple of y-powers (b_1, ..., b_n) becomes the
    monomial z_1^b_1 ... z_n^b_n.  Mixed classes with exterior factors
    have no such polynomial form and are rejected.  A pure y-power is
    fixed by its exponent, so the terms carry over one to one."""
    if tc.r != 1:
        raise ValueError("polynomial form requires the prime field (r = 1)")
    out: dict = {}
    for tup, c in tc.terms.items():
        exps = []
        for m in tup:
            if m.ext[0]:
                raise ValueError("exterior factors admit no polynomial form")
            exps.append(m.pows[0])
        out[tuple(exps)] = c
    return MultiPoly._of(tc.p, tc.n, out)
