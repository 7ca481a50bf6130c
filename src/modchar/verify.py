"""Cross-check suites: every exact identity the library promises, run on
fixed grids with independent oracles (big-integer combinatorics, power
sums, brute-force minima, dual filtration routes)."""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import threading
import time

from . import chi as chi_mod
from . import Record, coalg, dickson, reps
from .chi import (
    KIND_MIXED,
    KIND_Y_POWER,
    STATUS_NONNILPOTENT,
    STATUS_NONZERO,
    STATUS_UNDEFINED,
    chi_basic,
    is_chi_nonzero,
    min_m_for_digit_sum,
    r1_predicate,
    wedge_split_check,
    witness_alpha,
    witness_degree,
    witness_splitting,
)
from .ff import FieldCtx, FieldError, MatrixFF
from .mono import (
    Monomial,
    TensorClass,
    degree,
    enumerate_invariant_basis,
    is_invariant,
    weight,
)

ORACLE_GRID = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2))
Q_GRID = ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))  # q in {2,3,4,5,8,9}
DICKSON_GRID = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2))  # quick profile
INDEPENDENCE_MAX_DEGREE = 3  # total degree bound of algebraic_independence_check's relations
RANDOM_REP_DIM_CAP = 8  # random_valid_rep's largest dimension
RANDOM_REP_MAX_GENS = 3  # random_valid_rep's largest generator count


class SuiteResult(Record):
    """One suite's outcome: its name, whether it passed, its detail and
    its running time.  Equality compares every field; it has no hash."""

    __slots__ = _names = ("name", "ok", "detail", "seconds")


class SuiteFailure(Exception):
    """A failed check inside a suite; its message is the suite's detail."""


def _suite(name: str):
    """Run the decorated check as the suite `name`.  The check returns its
    detail (the case count first) or raises SuiteFailure(detail); a
    ValueError or ArithmeticError raised inside a route fails the suite
    too, with the exception named.  The runner times it and builds the
    SuiteResult."""

    def decorate(check):
        @functools.wraps(check)
        def timed(profile="quick") -> SuiteResult:
            start = time.perf_counter()
            try:
                ok, detail = True, check(profile)
            except SuiteFailure as exc:
                ok, detail = False, str(exc)
            except (ValueError, ArithmeticError) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            return SuiteResult(name, ok, detail, time.perf_counter() - start)

        return timed

    return decorate


@_suite("oracle-equivalence")
def suite_oracle_equivalence(profile="quick") -> str:
    """Criterion 1: the splitting formula and the power-sum route give
    the same polynomial for every y^k class on the oracle grid."""
    checked = 0
    for p, n in ORACLE_GRID:
        for k in range(1, 2 * (p**n - 1) + 2 * p + 1):
            alpha = Monomial((0,), (k,))
            if not is_invariant(alpha, p):
                continue
            lhs = dickson.tensor_to_poly(chi_basic(p, 1, alpha, n))
            rhs = dickson.power_sum(p, n, k).neg()
            if lhs != rhs:
                raise SuiteFailure(f"mismatch at p={p}, n={n}, k={k}")
            checked += 1
    return f"{checked} classes matched"


@_suite("digit-criterion")
def suite_digit_criterion(profile="quick") -> str:
    """Criterion 2: the digit-sum classification agrees with the
    splitting search for m <= 300, kinds y and xy, undefineds included."""
    checked = 0
    for p, n in ORACLE_GRID:
        kinds = ("y",) if p == 2 else ("y", "xy")
        for kind in kinds:
            for m in range(0, 301):
                checked += 1
                status = r1_predicate(p, kind, m, n)
                ext = (0,) if kind == "y" else (1,)
                alpha = Monomial(ext, (m,))
                if status == STATUS_UNDEFINED:
                    if is_invariant(alpha, p):
                        raise SuiteFailure(f"undefined but invariant: p={p} {kind} m={m}")
                    continue
                if not is_invariant(alpha, p):
                    raise SuiteFailure(f"defined but not invariant: p={p} {kind} m={m}")
                nonzero = is_chi_nonzero(p, 1, alpha, n)
                expected = status in (STATUS_NONNILPOTENT, STATUS_NONZERO)
                if nonzero != expected:
                    raise SuiteFailure(
                        f"predicate {status} vs search {nonzero}: "
                        f"p={p} n={n} {kind} m={m}"
                    )
    return f"{checked} (p, n, kind, m) statuses matched the search"


@_suite("lowest-degrees")
def suite_lowest_degrees(profile="quick") -> str:
    """Criterion 3: minimal nonzero degrees match the closed forms."""
    for p, n in ORACLE_GRID:
        if p == 2:
            m = min_m_for_digit_sum(2, n)
            if m != 2**n - 1:
                raise SuiteFailure(f"p=2 n={n}: min m {m}")
            lowest = _lowest_nonzero_degree(p, n, "y")
            if lowest != 2**n - 1:
                raise SuiteFailure(f"p=2 n={n}: scan found degree {lowest}")
        else:
            m = min_m_for_digit_sum(p, n * (p - 1))
            if m != p**n - 1 or 2 * m != 2 * p**n - 2:
                raise SuiteFailure(f"p={p} n={n}: min m {m} for kind y")
            if _lowest_nonzero_degree(p, n, "y") != 2 * p**n - 2:
                raise SuiteFailure(f"p={p} n={n}: y scan mismatch")
            m = min_m_for_digit_sum(p, n * (p - 1) - 1)
            if 2 * m + 1 != 2 * p**n - 2 * p ** (n - 1) - 1:
                raise SuiteFailure(f"p={p} n={n}: min m {m} for kind xy")
            if _lowest_nonzero_degree(p, n, "xy") != 2 * p**n - 2 * p ** (n - 1) - 1:
                raise SuiteFailure(f"p={p} n={n}: xy scan mismatch")
    return f"{len(ORACLE_GRID)} (p, n) minima matched the closed forms"


def _lowest_nonzero_degree(p, n, kind):
    bound = 2 * p**n
    for m in range(1, bound + 1):
        status = r1_predicate(p, kind, m, n)
        if status in (STATUS_NONNILPOTENT, STATUS_NONZERO):
            return m if p == 2 else (2 * m if kind == "y" else 2 * m + 1)
    return None


@_suite("coalgebra-laws")
def suite_coalgebra_laws(profile="quick") -> str:
    """Criterion 4: coassociativity, graded cocommutativity, counit,
    weight additivity and invariance closure, degree <= 12 on the q
    grid."""
    checked = 0
    for p, r in Q_GRID:
        monomials = []
        for d in range(0, 13):
            monomials.extend(enumerate_invariant_basis(p, r, d))
        for m in monomials:
            delta = coalg.coproduct(p, r, m)
            left = {}
            for (m1, m2), c in delta.items():
                for (a, b), c2 in coalg.coproduct(p, r, m1).items():
                    key = (a, b, m2)
                    left[key] = (left.get(key, 0) + c * c2) % p
            right = {}
            for (m1, m2), c in delta.items():
                for (a, b), c2 in coalg.coproduct(p, r, m2).items():
                    key = (m1, a, b)
                    right[key] = (right.get(key, 0) + c * c2) % p
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            if left != right:
                raise SuiteFailure(f"coassociativity fails at q={p**r}, {m}")
            flipped = {}
            for (m1, m2), c in delta.items():
                sign = (-1) ** (degree(m1, p) * degree(m2, p))
                flipped[(m2, m1)] = sign * c % p
            if flipped != delta:
                raise SuiteFailure(f"cocommutativity fails at q={p**r}, {m}")
            unit = Monomial.unit(r)
            left_counit = {}
            for (m1, m2), c in delta.items():
                if m1 == unit:
                    left_counit[m2] = c
            right_counit = {}
            for (m1, m2), c in delta.items():
                if m2 == unit:
                    right_counit[m1] = c
            if left_counit != {m: 1} or right_counit != {m: 1}:
                raise SuiteFailure(f"counit fails at q={p**r}, {m}")
            w = weight(m, p)
            for (m1, m2), _ in delta.items():
                if weight(m1, p) + weight(m2, p) != w:
                    raise SuiteFailure(f"weight split fails at q={p**r}, {m}")
                if not (is_invariant(m1, p) and is_invariant(m2, p)):
                    raise SuiteFailure(f"invariance fails at q={p**r}, {m}")
            checked += 1
    return f"{checked} monomials satisfied the laws"


@_suite("wedge-consistency")
def suite_wedge(profile="quick") -> str:
    """Criterion 5: rank splitting through the coproduct, a+b <= 4,
    q in {2,3,4}, degree <= 10."""
    checked = 0
    for p, r in ((2, 1), (3, 1), (2, 2)):
        monomials = []
        for d in range(1, 11):
            monomials.extend(enumerate_invariant_basis(p, r, d))
        for m in monomials:
            for a in range(1, 4):
                for b in range(1, 5 - a):
                    if not wedge_split_check(p, r, m, a, b):
                        raise SuiteFailure(f"q={p**r}, alpha={m}, a={a}, b={b}")
                    checked += 1
    return f"{checked} (alpha, a, b) rank splittings matched"


def dickson_total_by_product(p: int, n: int) -> dict:
    """Oracle for `dickson.dickson_total`: the product of (1 + v) over all
    nonzero dual vectors v, expanded one factor at a time, as a map from
    degree to polynomial."""
    prod: dict = {(0,) * n: 1}
    for coeffs in itertools.product(range(p), repeat=n):
        if not any(coeffs):
            continue
        nxt = dict(prod)
        for e, c in prod.items():
            for i, a in enumerate(coeffs):
                if a:
                    key = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    nxt[key] = (nxt.get(key, 0) + c * a) % p
        prod = {e: c for e, c in nxt.items() if c}
    by_degree: dict = {}
    for e, c in prod.items():
        by_degree.setdefault(sum(e), {})[e] = c
    return {d: dickson.MultiPoly(p, n, t) for d, t in by_degree.items()}


def algebraic_independence_check(p: int, n: int) -> bool:
    """No nonzero relation of total degree <= INDEPENDENCE_MAX_DEGREE among
    D_{p^n-1} and the products D_{p^n-1} D_{p^n-p^i} (1 <= i <= n-1),
    verified by exact rank computation on monomial coefficients."""
    d_total = dickson.dickson_total(p, n)
    top = d_total.component(p**n - 1)
    gens = [top]
    for i in range(1, n):
        gens.append(top.mul(d_total.component(p**n - p**i)))
    exponents = [
        e
        for e in itertools.product(range(INDEPENDENCE_MAX_DEGREE + 1), repeat=len(gens))
        if sum(e) <= INDEPENDENCE_MAX_DEGREE
    ]
    expanded = []
    for e in exponents:
        poly = dickson.MultiPoly.const(p, n, 1)
        for g, k in zip(gens, e):
            if k:
                poly = poly.mul(g.pow(k))
        expanded.append(poly)
    monomials = sorted({m for poly in expanded for m in poly.terms})
    index = {m: j for j, m in enumerate(monomials)}
    rows = []
    for poly in expanded:
        row = [0] * len(monomials)
        for m, c in poly.terms.items():
            row[index[m]] = c
        rows.append(row)
    return MatrixFF(FieldCtx(p, 1), rows).rank() == len(expanded)


def newton_product_check(p: int, n: int, dmax: int) -> bool:
    """Newton's identity in product form: D * A, truncated at dmax, is the
    single homogeneous term -D_{p^n - 1}.  `dickson.newton_check` decides
    the same predicate by comparing A with the memoised quotient
    -D_{p^n - 1} / D; this route multiplies instead, one truncated
    product, and never reads that quotient."""
    d_total = dickson.dickson_total(p, n)
    product = d_total.mul_truncated(dickson.alternating_chi_total(p, n, dmax), dmax)
    return product == d_total.component(p**n - 1).neg()


@_suite("dickson-identities")
def suite_dickson(profile="quick") -> str:
    """Criterion 6: every component of the total symmetric class (from
    the Dickson recursion) against the expanded product over (1 + v), its
    sparsity, Newton's identity as the report decides it and in product
    form, the series-inverse route, the product identities with the
    exhaustive companion scan, and algebraic independence at n = 2."""
    grid = list(DICKSON_GRID)
    if profile == "full":
        grid.append((3, 3))
    components = 0
    for p, n in grid:
        q = p**n
        total = dickson.dickson_total(p, n)
        expanded = dickson_total_by_product(p, n)
        for d in sorted(set(total.components) | set(expanded)):
            if total.component(d) != expanded.get(d, dickson.MultiPoly.zero(p, n)):
                raise SuiteFailure(f"D_{d} differs from the product over (1 + v) at {p},{n}")
            components += 1
        report = dickson.report(p, n, 3 * (q - 1))
        failed = [check for check in ("sparsity", "newton", "inverse") if not report[check]]
        if not newton_product_check(p, n, 3 * (q - 1)):
            failed.append("newton (product form)")
        failed += [
            f"product identity i={i}: {sign}"
            for i, sign in report["product_signs"].items()
            if sign not in (1, -1)
        ]
        if failed:
            raise SuiteFailure(f"p={p}, n={n}: " + "; ".join(failed))
        special = {2 * q - p**i - 1 for i in range(n + 1)}
        extras = [k for k in dickson.nonzero_chi_degrees(p, n) if k not in special]
        if extras:
            raise SuiteFailure(f"unexpected nonzero chi at k={extras}, {p},{n}")
    for p in (2, 3):
        if not algebraic_independence_check(p, 2):
            raise SuiteFailure(f"algebraic independence fails at p={p}")
    return (
        f"{components} (p, n, degree) components matched the product over "
        f"(1 + v) on grid {grid}"
    )


@_suite("filtration")
def suite_filtration(profile="quick") -> str:
    """Criterion 7: dual filtration routes on 200 random reps, the
    conjugation of the second socle stage of the big rep onto the basic
    rep (and classify's basic model, decided without it, agreeing),
    socle balance of tensor squares, strictness and saturation.  The
    full profile adds the dim bound: regular_rep(2, 8) by both routes
    against loewy_dims, and validate of its generators listed 4 times."""
    checked = 0
    rng = random.Random(20260809)
    contexts = [FieldCtx(2, 1), FieldCtx(3, 1), FieldCtx(2, 2)]
    for i in range(200):
        rep = random_valid_rep(rng, contexts[i % len(contexts)])
        bad = reps.validate(rep)  # every construction above yields a valid rep
        if bad:
            raise SuiteFailure(f"random rep {i} invalid: {bad}")
        quot = reps.socle_filtration(rep)
        ann = reps.socle_filtration_by_annihilators(rep)
        if quot != ann:
            raise SuiteFailure(f"filtration routes disagree on random rep {i}")
        dims = [s.dim for s in quot]
        if any(b <= a for a, b in zip(dims, dims[1:])) or quot[-1].dim != rep.dim:
            raise SuiteFailure(f"filtration not strict/saturating on rep {i}")
        checked += 1
    for p, r, nmax in ((2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1)):
        for n in range(1, nmax + 1):
            big = reps.big_rep(p, r, n)
            stages = reps.socle_filtration(big)
            j1 = stages[min(1, len(stages) - 1)]
            restricted = reps.restrict(big, j1)
            t = reps.iso_to_basic(restricted)
            target = reps.basic_rep(p, r, n)
            t_inv = t.inverse()
            for g, bgen in zip(restricted.generators, target.rep.generators):
                if t.mul(g).mul(t_inv) != bgen:
                    raise SuiteFailure(f"conjugation fails at ({p},{r},{n})")
            if reps.classify(big).basic_model != target:
                raise SuiteFailure(f"classify's basic model differs at ({p},{r},{n})")
            checked += 1
    for p, r in ((2, 1), (3, 1), (2, 2)):
        xi = reps.sym_power_rep(p, r)
        prod_dim = xi.dim**2
        for i in range(prod_dim):
            if not reps.socle_tensor_check(xi, xi, i):
                raise SuiteFailure(f"tensor socle fails at q={p**r}, i={i}")
            checked += 1
    if profile != "full":
        return f"{checked} cases: random reps, big-rep conjugations, tensor socle stages"
    regular = reps.regular_rep(2, 8)
    for route in (reps.socle_filtration, reps.socle_filtration_by_annihilators):
        if [s.dim for s in route(regular)] != loewy_dims(2, 8):
            raise SuiteFailure(f"{route.__name__} of regular_rep(2, 8) misses the Loewy dims")
    if reps.validate(reps.Rep._of(regular.ctx, regular.dim, regular.generators * 4)):
        raise SuiteFailure("validate rejects regular_rep(2, 8)'s generators listed 4 times")
    return (
        f"{checked + 3} cases: random reps, big-rep conjugations, tensor socle stages, "
        "regular_rep(2, 8) by both routes, a 32-generator validate"
    )


def loewy_dims(p: int, n: int) -> list[int]:
    """dim J_i of regular_rep(p, n) in closed form: the cumulative Hilbert
    function of F_p[x_1..x_n] / (x_i^p), whose degree-d part has the
    coefficient of t^d in (1 + t + ... + t^(p-1))^n as its dimension."""
    coeffs = [1]
    for _ in range(n):
        coeffs = [sum(coeffs[max(0, d - p + 1) : d + 1]) for d in range(len(coeffs) + p - 1)]
    return list(itertools.accumulate(coeffs))


@_suite("classification")
def suite_classification(profile="quick") -> str:
    """Criterion 8: direct sums vanish, the regular representation
    computes like the basic one, and pullbacks along redundant
    generators recover the projection."""
    checked = 0
    for p, r in ((2, 1), (3, 1), (2, 2)):
        basic1 = reps.basic_rep(p, r, 1)
        summed = reps.direct_sum(basic1.rep, basic1.rep)
        if reps.classify(summed).verdict != "zero":
            raise SuiteFailure(f"direct sum not zero at q={p**r}")
        checked += 1
        if p**r <= 4:
            ctx = basic1.rep.ctx
            trivial = reps.Rep(ctx, 1, (MatrixFF.identity(ctx, 1),) * basic1.rep.rank)
            padded = reps.direct_sum(basic1.rep, trivial)
            if reps.classify(padded).verdict != "zero":
                raise SuiteFailure(f"trivial pad not zero at q={p**r}")
            checked += 1
    for p in (2, 3):
        for n in (1, 2):
            reg = reps.regular_rep(p, n)
            for k in range(1, 2 * (p**n - 1) + 1):
                got = reps.chi_of_rep(reg, k)
                want = dickson.power_sum(p, n, k).neg()
                if got != want:
                    raise SuiteFailure(f"regular rep chi differs at p={p}, n={n}, k={k}")
                checked += 1
    surjection = [[1, 0, 0], [0, 1, 1]]
    pulled = reps.pullback(reps.basic_rep(2, 1, 2).rep, surjection)
    red = reps.classify(pulled)
    if red.verdict != "reduced" or red.quotient_rank != 2:
        raise SuiteFailure("pullback did not reduce to rank 2")
    if [list(row) for row in red.projection] != surjection:
        raise SuiteFailure(f"recovered projection {red.projection}")
    for k in (1, 2, 3):
        got = reps.chi_of_rep(pulled, k)
        want = dickson.power_sum(2, 2, k).neg().substitute(surjection, 3)
        if got != want:
            raise SuiteFailure(f"pullback chi differs at k={k}")
        checked += 1
    surjection3 = [[1, 0, 2], [0, 1, 1]]
    pulled3 = reps.pullback(reps.basic_rep(3, 1, 2).rep, surjection3)
    red3 = reps.classify(pulled3)
    if red3.verdict != "reduced" or red3.quotient_rank != 2:
        raise SuiteFailure("odd-p pullback did not reduce to rank 2")
    for k in (4, 8):
        got = reps.chi_of_rep(pulled3, k)
        want = dickson.power_sum(3, 2, k).neg().substitute(surjection3, 3)
        if got != want:
            raise SuiteFailure(f"odd-p pullback chi differs at k={k}")
        checked += 1
    for p, r, a, b in ((2, 1, 1, 2), (3, 1, 1, 1), (2, 2, 1, 1)):
        wedge = reps.wedge_sum(reps.basic_rep(p, r, a), reps.basic_rep(p, r, b))
        red = reps.classify(wedge.rep)
        if red.verdict != "reduced" or red.quotient_rank != r * (a + b):
            raise SuiteFailure(f"wedge rank wrong at ({p},{r},{a},{b})")
        checked += 1
    return f"{checked} verdicts and pulled-back classes matched"


@_suite("arithmetic")
def suite_arithmetic(profile="quick") -> str:
    """Criterion 9: digit-wise binomials and multinomials against exact
    big-integer oracles, minimal digit-sum witnesses against a digit DP,
    and the Grassmannian point-count congruence.  Each oracle is computed
    once per case and reduced mod each p: the binomials from exact Pascal
    rows m <= 300, built by addition and held one row at a time, and the
    multinomials from a table of 0!, ..., 400!."""
    primes = (2, 3, 5, 7)
    checked = 0
    row = [1]
    for m in range(0, 301):
        for k, exact in enumerate(row):
            for p in primes:
                if coalg.lucas_binomial(p, m, k) != exact % p:
                    raise SuiteFailure(f"binomial p={p} C({m},{k})")
                checked += 1
        row = [1, *map(sum, zip(row, row[1:])), 1]
    rng = random.Random(97)
    samples = []
    for x in range(0, 101, 1):
        for y in range(0, 101, 7):
            samples.append((x, y))
    for _ in range(4000):
        samples.append(tuple(rng.randrange(0, 101) for _ in range(3)))
    for _ in range(4000):
        samples.append(tuple(rng.randrange(0, 101) for _ in range(4)))
    factorials = [math.factorial(x) for x in range(401)]
    for parts in samples:
        exact = factorials[sum(parts)]
        for x in parts:
            exact //= factorials[x]
        for p in primes:
            got = coalg.multinomial_mod_p(p, parts)
            if got != exact % p:
                raise SuiteFailure(f"multinomial p={p} parts={parts}")
            if (got != 0) != coalg.no_carry(p, parts):
                raise SuiteFailure(f"carry criterion p={p} parts={parts}")
            checked += 1
    for p in primes:
        for s in range(0, 41):
            if min_m_for_digit_sum(p, s) != _min_digit_sum_dp(p, s):
                raise SuiteFailure(f"digit-sum minimum p={p} s={s}")
            checked += 1
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        for a in range(0, 9):
            for b in range(0, a + 1):
                g = coalg.gaussian_binomial(a, b, q)
                if g % q != 1 % q:
                    raise SuiteFailure(f"q-binomial ({a},{b})_{q} = {g}")
                checked += 1
    return f"{checked} binomials, multinomials, minima and q-binomials matched"


def _min_digit_sum_dp(p, s):
    """Independent minimum: smallest value of any base-p digit vector
    with digit sum s, by dynamic programming over digit positions."""
    positions = max(1, -(-s // (p - 1)))
    best = {0: 0}
    for pos in range(positions):
        new = {}
        scale = p**pos
        for acc, val in best.items():
            for d in range(p):
                nacc = acc + d
                if nacc > s:
                    break
                nval = val + d * scale
                if nacc not in new or nval < new[nacc]:
                    new[nacc] = nval
        best = new
    return best[s]


@_suite("witnesses")
def suite_witnesses(profile="quick") -> str:
    """Criterion 10: the explicit splittings behind the witness classes
    are admissible nonzero terms, and table degrees match the closed
    forms."""
    checked = 0
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            for n in (1, 2, 3):
                kinds = [KIND_Y_POWER] if p == 2 else [KIND_Y_POWER, KIND_MIXED]
                for kind in kinds:
                    alpha = witness_alpha(p, r, n, kind)
                    if not is_invariant(alpha, p):
                        raise SuiteFailure(f"witness not invariant ({p},{r},{n},{kind})")
                    factors = witness_splitting(p, r, n, kind)
                    if len(factors) != n:
                        raise SuiteFailure(f"splitting arity ({p},{r},{n})")
                    if not chi_mod.splitting_is_admissible(p, r, alpha, factors):
                        raise SuiteFailure(f"splitting inadmissible ({p},{r},{n},{kind})")
                    if degree(alpha, p) != witness_degree(p, r, n, kind):
                        raise SuiteFailure(f"degree formula ({p},{r},{n},{kind})")
                    checked += 1
                if r == 1 and n <= 2 and p <= 3:
                    for kind in kinds:
                        alpha = witness_alpha(p, r, n, kind)
                        if not is_chi_nonzero(p, r, alpha, n):
                            raise SuiteFailure(f"search misses witness ({p},{n},{kind})")
                        tc = chi_basic(p, r, alpha, n)
                        key = tuple(witness_splitting(p, r, n, kind))
                        if tc.coefficient(key) == 0:
                            raise SuiteFailure(
                                f"expanded class misses the splitting ({p},{n},{kind})"
                            )
                        checked += 1
    return f"{checked} witnesses and expansions checked"


@_suite("pruned-expansion")
def suite_pruned_expansion(profile="quick") -> str:
    """Criterion 11: chi_basic, dealt right-nested with unit splits
    dropped and splits cut by token weight, against a route sharing
    neither: the whole left-nested iterated coproduct, then every tuple
    with a degree-0 factor dropped, then the sign (-1)^(n-1).  Invariant
    y^k at (p, n) = (2,4), k <= 20; (3,3), k <= 32; (5,2), k <= 48; and
    every basis monomial over GF(4) up to degree 12 and over GF(9) up to
    degree 16, at n = 2 (quick) or at n = 2 and 3 (full).  Full adds
    classes where the token-weight bound cuts splits: y^63 at (2,6), and
    every basis monomial over GF(8) of degrees 1-24 at n = 3."""
    cases = [
        (p, 1, Monomial((0,), (k,)), n)
        for p, n, kmax in ((2, 4, 20), (3, 3, 32), (5, 2, 48))
        for k in range(1, kmax + 1)
        if k % (p - 1) == 0
    ]
    cases += [
        (p, r, m, n)
        for p, r, dmax in ((2, 2, 12), (3, 2, 16))
        for d in range(1, dmax + 1)
        for m in enumerate_invariant_basis(p, r, d)
        for n in ((2, 3) if profile == "full" else (2,))
    ]
    if profile == "full":
        cases.append((2, 1, Monomial((0,), (63,)), 6))
        cases += [(2, 3, m, 3) for d in range(1, 25) for m in enumerate_invariant_basis(2, 3, d)]
    for p, r, alpha, n in cases:
        unpruned = {
            tup: (-1) ** (n - 1) * c
            for tup, c in coalg.iterated_coproduct(p, r, alpha, n).items()
            if all(degree(m, p) for m in tup)
        }
        if chi_basic(p, r, alpha, n) != TensorClass(p, r, n, unpruned):
            raise SuiteFailure(f"q={p**r}, n={n}, alpha={alpha}")
    return f"{len(cases)} classes matched the unpruned splitting"


# -- random representations ---------------------------------------------------


def random_valid_rep(rng: random.Random, ctx: FieldCtx) -> reps.Rep:
    """Random valid rep built compositionally (sums, tensors, socle
    restrictions, quotients, duals of the stock constructions), pulled
    back along a random exponent matrix and conjugated by a random
    invertible matrix, which keeps it valid."""
    p, r = ctx.p, ctx.r

    def atom():
        roll = rng.randrange(4)
        if roll == 0:
            return reps.basic_rep(p, r, 1, ctx.modulus).rep
        if roll == 1 and 2 * r + 1 <= RANDOM_REP_DIM_CAP:
            return reps.basic_rep(p, r, 2, ctx.modulus).rep
        if roll == 2 and p <= RANDOM_REP_DIM_CAP:
            return reps.sym_power_rep(p, r, ctx.modulus)
        if roll == 3 and r == 1 and p**2 <= RANDOM_REP_DIM_CAP and rng.random() < 0.5:
            return reps.regular_rep(p, 2)
        return reps.basic_rep(p, r, 1, ctx.modulus).rep

    rep = atom()
    for _ in range(rng.randrange(3)):
        other = atom()
        choice = rng.randrange(3)
        if choice == 0 and rep.dim + other.dim <= RANDOM_REP_DIM_CAP:
            rep = reps.direct_sum(rep, other)
        elif choice == 1 and rep.dim * other.dim <= RANDOM_REP_DIM_CAP:
            rep = reps.tensor_rep(rep, other)
        elif choice == 2:
            stages = reps.socle_filtration(rep)
            if len(stages) > 1 and rng.random() < 0.5:
                rep = reps.restrict(rep, stages[rng.randrange(1, len(stages))])
            elif stages[0].dim < rep.dim:
                rep = reps.quotient(rep, stages[0])
    if rng.random() < 0.3:
        rep = reps.dual_rep(rep)
    if rep.dim < 1:
        rep = reps.basic_rep(p, r, 1, ctx.modulus).rep
    s_new = rng.randrange(1, RANDOM_REP_MAX_GENS + 1)
    exponents = [
        [rng.randrange(p) for _ in range(s_new)] for _ in range(rep.rank)
    ]
    rep = reps.pullback(rep, exponents)
    mat, inv = _random_invertible(rng, ctx, rep.dim)
    gens = tuple(mat.mul(g).mul(inv) for g in rep.generators)
    return reps.Rep._of(ctx, rep.dim, gens)


def _random_invertible(rng: random.Random, ctx: FieldCtx, dim: int):
    """A random invertible dim x dim matrix and its inverse: each entry
    draws its r base-p digits, least significant first, and a singular
    draw is drawn again."""
    places = [ctx.p**i for i in range(ctx.r)]
    while True:
        rows = tuple(
            tuple([sum([rng.randrange(ctx.p) * place for place in places]) for _ in range(dim)])
            for _ in range(dim)
        )
        mat = MatrixFF._of(ctx, rows)
        try:
            return mat, mat.inverse()
        except FieldError:  # singular: draw again
            pass


ALL_SUITES = {
    "arithmetic": suite_arithmetic,
    "coalgebra": suite_coalgebra_laws,
    "oracle": suite_oracle_equivalence,
    "digit": suite_digit_criterion,
    "lowest-degrees": suite_lowest_degrees,
    "wedge": suite_wedge,
    "dickson": suite_dickson,
    "filtration": suite_filtration,
    "classification": suite_classification,
    "witnesses": suite_witnesses,
    "pruned": suite_pruned_expansion,
}


def run(profile: str = "quick", names=None) -> list[SuiteResult]:
    """Run the named suites (every suite when names is None) and return
    their results in the order named.  Taken in ALL_SUITES order (the
    longest, arithmetic, first), the suites at positions 0, 2, 4, ... run
    in one forked helper and the rest in this process, so a suite's
    `seconds` is its own time in whichever process ran it.  An exception
    that escapes a helper's suite is raised again here once this
    process's suites are done; one raised here kills the helper first.
    With one usable CPU, one suite, no os.fork, or other live threads
    (which a fork does not copy), every suite runs in this process."""
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    keys = list(ALL_SUITES if names is None else names)
    suites = [ALL_SUITES[key] for key in keys]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity calls on this platform
        cpus = os.cpu_count() or 1
    if min(cpus, len(suites)) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [suite(profile) for suite in suites]
    # only a forking run loads these, so importing verify for random_valid_rep stays cheap
    import pickle
    import signal

    position = list(ALL_SUITES)
    order = sorted(range(len(keys)), key=lambda i: position.index(keys[i]))
    theirs, ours = order[0::2], order[1::2]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the helper: it writes nothing to stdout or stderr and never returns
        try:
            os.close(read_fd)
            try:
                blob = pickle.dumps((True, [suites[i](profile) for i in theirs]))
            except BaseException as exc:
                try:
                    blob = pickle.dumps((False, exc))
                    pickle.loads(blob)  # an exception whose __init__ takes other args fails here
                except Exception:
                    blob = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            with open(write_fd, "wb") as out:
                out.write(blob)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            results = {i: suites[i](profile) for i in ours}
            blob = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    _, status = os.waitpid(pid, 0)  # after EOF, so the helper is not blocked on the pipe
    if not blob:
        helped = ", ".join(repr(keys[i]) for i in theirs)
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the helper running {helped} left without a result (exit status {code})")
    done, value = pickle.loads(blob)
    if not done:
        raise value
    results.update(zip(theirs, value))
    return [results[i] for i in range(len(keys))]
