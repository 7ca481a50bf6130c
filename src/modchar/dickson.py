"""Power sums over all linear forms on F_p^n, Dickson invariants, and the
identities tying them to the classes of the basic representation (r = 1).

The class attached to y^k equals minus the k-th power sum of all dual
vectors, which places it inside the Dickson invariant ring.  Newton's
identity then pins the whole family: with D the total elementary
symmetric class of all dual vectors and A the alternating total of the
y-power classes, D * A collapses to the single term -D_{p^n - 1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ff import FieldCtx, MatrixFF
from .mono import TensorClass


class IdentityFailure(ArithmeticError):
    """An exact polynomial identity that must hold failed to verify."""


@dataclass
class MultiPoly:
    """Sparse multivariate polynomial over F_p; keys are exponent tuples."""

    p: int
    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for e, c in self.terms.items():
            c %= self.p
            if c:
                if len(e) != self.nvars:
                    raise ValueError("exponent vector length != nvars")
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls, p, nvars):
        return cls(p, nvars, {})

    @classmethod
    def const(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, p, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(p, nvars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, p, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c % p:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c % p
        return cls(p, n, terms)

    def _check(self, other):
        if (self.p, self.nvars) != (other.p, other.nvars):
            raise ValueError("polynomial context mismatch")

    def add(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly(self.p, self.nvars, terms)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return self.scale(-1)

    def scale(self, c):
        return MultiPoly(self.p, self.nvars, {e: v * c for e, v in self.terms.items()})

    def mul(self, other):
        self._check(other)
        p = self.p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                val = out.get(key, 0) + c1 * c2
                out[key] = val % p
        return MultiPoly(p, self.nvars, out)

    def pow(self, k):
        result = MultiPoly.const(self.p, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base)
            k >>= 1
        return result

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self, d):
        return all(sum(e) == d for e in self.terms)

    def substitute(self, rows, nvars_new):
        """Replace the i-th variable by the linear form with integer
        coefficient row rows[i] over nvars_new new variables."""
        if len(rows) != self.nvars:
            raise ValueError("need one substitution row per variable")
        forms = [MultiPoly.linear_form(self.p, row) for row in rows]
        for f in forms:
            if f.nvars != nvars_new:
                raise ValueError("substitution row length mismatch")
        pow_cache = [{0: MultiPoly.const(self.p, nvars_new, 1)} for _ in forms]

        def form_pow(i, e):
            cache = pow_cache[i]
            if e not in cache:
                cache[e] = form_pow(i, e - 1).mul(forms[i])
            return cache[e]

        out = MultiPoly.zero(self.p, nvars_new)
        for exps, c in self.terms.items():
            term = MultiPoly.const(self.p, nvars_new, c)
            for i, e in enumerate(exps):
                if e:
                    term = term.mul(form_pow(i, e))
            out = out.add(term)
        return out

    def canonical_items(self):
        """Degree-graded order, lex-leading term first within a degree."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0])),
        )

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and (self.p, self.nvars) == (other.p, other.nvars)
            and self.terms == other.terms
        )

    def render(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = [f"z{i + 1}" for i in range(self.nvars)]
        parts = []
        for e, c in self.canonical_items():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(" ".join(factors))
            else:
                parts.append(f"{c} " + " ".join(factors))
        return " + ".join(parts)


@dataclass
class TotalClass:
    """Degree-indexed family of homogeneous polynomials, truncated at dmax."""

    p: int
    nvars: int
    dmax: int
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for d, poly in self.components.items():
            if poly.is_zero():
                continue
            if d > self.dmax or d < 0:
                raise ValueError(f"component degree {d} outside [0, {self.dmax}]")
            if not poly.is_homogeneous(d):
                raise ValueError(f"component at degree {d} is not homogeneous")
            clean[d] = poly
        self.components = clean

    def component(self, d) -> MultiPoly:
        return self.components.get(d, MultiPoly.zero(self.p, self.nvars))

    def mul(self, other, dmax=None) -> "TotalClass":
        if (self.p, self.nvars) != (other.p, other.nvars):
            raise ValueError("total class context mismatch")
        if dmax is None:
            dmax = min(self.dmax, other.dmax)
        out: dict = {}
        for d1, p1 in self.components.items():
            for d2, p2 in other.components.items():
                d = d1 + d2
                if d > dmax:
                    continue
                prod = p1.mul(p2)
                out[d] = out[d].add(prod) if d in out else prod
        return TotalClass(self.p, self.nvars, dmax, out)

    def __eq__(self, other):
        return (
            isinstance(other, TotalClass)
            and (self.p, self.nvars, self.dmax) == (other.p, other.nvars, other.dmax)
            and self.components == other.components
        )


# -- power sums --------------------------------------------------------------

# per (p, n): list of dicts, entry k holds the terms of sum of z^k over
# all dual vectors z; grown on demand and reused across calls
_PS_CACHE: dict = {}


def _power_sum_terms(p: int, n: int, k: int) -> dict:
    key = (p, n)
    state = _PS_CACHE.get(key)
    if state is None:
        forms = []
        for coeffs in itertools.product(range(p), repeat=n):
            if any(coeffs):
                forms.append(
                    {
                        tuple(1 if j == i else 0 for j in range(n)): c
                        for i, c in enumerate(coeffs)
                        if c
                    }
                )
        state = {"forms": forms, "powers": [dict(f) for f in forms], "sums": [None]}
        _PS_CACHE[key] = state
    sums = state["sums"]
    while len(sums) <= k:
        total: dict = {}
        for idx, cur in enumerate(state["powers"]):
            if len(sums) > 1:
                form = state["forms"][idx]
                nxt: dict = {}
                for e, c in cur.items():
                    for fe, fc in form.items():
                        key2 = tuple(a + b for a, b in zip(e, fe))
                        val = nxt.get(key2, 0) + c * fc
                        nxt[key2] = val % p
                cur = {e: c for e, c in nxt.items() if c}
                state["powers"][idx] = cur
            for e, c in cur.items():
                val = total.get(e, 0) + c
                total[e] = val % p
        sums.append({e: c for e, c in total.items() if c})
    return sums[k]


def power_sum(p: int, n: int, k: int) -> MultiPoly:
    """Sum of z^k over all p^n dual vectors z of F_p^n (the zero vector
    contributes nothing for k >= 1)."""
    if k < 1:
        raise ValueError("power sums are defined for k >= 1")
    return MultiPoly(p, n, dict(_power_sum_terms(p, n, k)))


def chi_via_power_sum(p: int, n: int, k: int) -> MultiPoly:
    """The y^k class of the basic representation, computed as minus the
    k-th power sum; vanishes unless p - 1 divides k."""
    return power_sum(p, n, k).neg()


def dickson_total(p: int, n: int) -> TotalClass:
    """Product of (1 + z) over all dual vectors: total elementary
    symmetric class, nonzero only in degrees p^n - p^i (and 0)."""
    nvars = n
    prod: dict = {(0,) * nvars: 1}
    for coeffs in itertools.product(range(p), repeat=n):
        if not any(coeffs):
            continue
        nxt = dict(prod)
        for e, c in prod.items():
            for i, a in enumerate(coeffs):
                if a:
                    key = tuple(x + (1 if j == i else 0) for j, x in enumerate(e))
                    val = nxt.get(key, 0) + c * a
                    nxt[key] = val % p
        prod = {e: c for e, c in nxt.items() if c}
    by_degree: dict = {}
    for e, c in prod.items():
        d = sum(e)
        by_degree.setdefault(d, {})[e] = c
    comps = {d: MultiPoly(p, nvars, t) for d, t in by_degree.items()}
    return TotalClass(p, nvars, p**n, comps)


def alternating_chi_total(p: int, n: int, dmax: int) -> TotalClass:
    """Total class with degree-k component (-1)^k times the y^k class of
    the basic representation, k = 1..dmax."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    comps = {}
    for k in range(1, dmax + 1):
        poly = chi_via_power_sum(p, n, k)
        if k % 2:
            poly = poly.neg()
        if not poly.is_zero():
            comps[k] = poly
    return TotalClass(p, n, dmax, comps)


def newton_check(p: int, n: int, dmax: int) -> bool:
    """Newton's identity: D * A truncates to the single homogeneous term
    -D_{p^n - 1}."""
    if dmax < p**n - 1:
        raise ValueError("dmax must reach degree p^n - 1")
    d_total = dickson_total(p, n)
    a_total = alternating_chi_total(p, n, dmax)
    prod = d_total.mul(a_total, dmax=dmax)
    top = p**n - 1
    expected = TotalClass(
        p, n, dmax, {top: d_total.component(top).neg()}
    )
    return prod == expected


def series_inverse(d_total: TotalClass, dmax: int) -> TotalClass:
    """Formal inverse of a total class with constant term 1, degree by
    degree up to dmax."""
    p, nvars = d_total.p, d_total.nvars
    const = d_total.component(0)
    if const != MultiPoly.const(p, nvars, 1):
        raise ValueError("series inverse needs constant term 1")
    inv = {0: MultiPoly.const(p, nvars, 1)}
    positive = {d: c for d, c in d_total.components.items() if d > 0}
    for d in range(1, dmax + 1):
        acc = MultiPoly.zero(p, nvars)
        for j, dj in positive.items():
            if j <= d and (d - j) in inv:
                acc = acc.add(dj.mul(inv[d - j]))
        if not acc.is_zero():
            inv[d] = acc.neg()
    return TotalClass(p, nvars, dmax, inv)


def chi_total_from_inverse(p: int, n: int, dmax: int) -> TotalClass:
    """The alternating chi total recovered as -D_{p^n - 1} * D^{-1}."""
    d_total = dickson_total(p, n)
    top = p**n - 1
    inv = series_inverse(d_total, dmax)
    lead = TotalClass(p, n, dmax, {top: d_total.component(top).neg()})
    return lead.mul(inv, dmax=dmax)


def product_identity_check(p: int, n: int, i: int) -> int:
    """Sign s with chi_{y^k} = s * D_{p^n-1} * D_{p^n-p^i} at
    k = 2 p^n - p^i - 1; raises when neither sign matches."""
    if not 0 <= i <= n:
        raise ValueError("index i must lie in [0, n]")
    k = 2 * p**n - p**i - 1
    lhs = chi_via_power_sum(p, n, k)
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


def nonzero_chi_degrees(p: int, n: int) -> list[int]:
    """All k <= 2(p^n - 1) with nonzero y^k class of the basic
    representation (companion scan to the product identities)."""
    return [
        k
        for k in range(1, 2 * (p**n - 1) + 1)
        if not chi_via_power_sum(p, n, k).is_zero()
    ]


def algebraic_independence_check(p: int, n: int, max_total_degree: int = 3) -> bool:
    """No nonzero polynomial relation of bounded total degree among
    D_{p^n-1} and the products D_{p^n-1} D_{p^n-p^i} (1 <= i <= n-1),
    verified by exact rank computation on monomial coefficients."""
    d_total = dickson_total(p, n)
    top = d_total.component(p**n - 1)
    gens = [top]
    for i in range(1, n):
        gens.append(top.mul(d_total.component(p**n - p**i)))
    exponents = [
        e
        for e in itertools.product(range(max_total_degree + 1), repeat=len(gens))
        if sum(e) <= max_total_degree
    ]
    expanded = []
    for e in exponents:
        poly = MultiPoly.const(p, n, 1)
        for g, k in zip(gens, e):
            if k:
                poly = poly.mul(g.pow(k))
        expanded.append(poly)
    monomials = sorted({m for poly in expanded for m in poly.terms})
    index = {m: j for j, m in enumerate(monomials)}
    ctx = FieldCtx(p, 1)
    rows = []
    for poly in expanded:
        row = [ctx.zero] * len(monomials)
        for m, c in poly.terms.items():
            row[index[m]] = ctx.scalar(c)
        rows.append(row)
    return MatrixFF(ctx, rows).rank() == len(expanded)


def tensor_to_poly(tc: TensorClass) -> MultiPoly:
    """Identify a pure-polynomial tensor class over the prime field with
    a polynomial: the tuple of y-powers (b_1, ..., b_n) becomes the
    monomial z_1^b_1 ... z_n^b_n.  Mixed classes with exterior factors
    have no such polynomial form and are rejected."""
    if tc.r != 1:
        raise ValueError("polynomial form requires the prime field (r = 1)")
    out: dict = {}
    for tup, c in tc.terms.items():
        exps = []
        for m in tup:
            if any(m.ext):
                raise ValueError("exterior factors admit no polynomial form")
            exps.append(m.pows[0])
        key = tuple(exps)
        out[key] = (out.get(key, 0) + c) % tc.p
    return MultiPoly(tc.p, tc.n, out)
