"""Power sums, Dickson invariants, Newton's identity, product formulas.

Two oracles for `power_sum`, which raises one linear form per line to
the k-th power digit by digit: a multinomial identity (a sum over
compositions of k with every part a positive multiple of p - 1), and a
brute-force sum of (v . z)^k over every nonzero v, expanded one factor
at a time.  Neither shares code with the line-and-digit route."""

import itertools
import math
import random

import pytest

from modchar import chi, dickson, reps
from modchar.dickson import (
    IdentityFailure,
    MultiPoly,
    alternating_chi_total,
    chi_total_from_inverse,
    chi_y_power,
    dickson_total,
    newton_check,
    nonzero_chi_degrees,
    power_sum,
    product_identity_check,
    series_quotient,
)
from modchar.mono import ContextMismatch, Monomial
from modchar.verify import (
    DICKSON_GRID,
    algebraic_independence_check,
    dickson_total_by_product,
    newton_product_check,
)


def poly(p, n, terms):
    return MultiPoly(p, n, terms)


def naive_power_sum(p, n, k):
    """Multinomial-identity oracle: sum over exponent tuples with every
    part a positive multiple of p - 1 weighted by (-1)^n multinomial."""
    terms = {}
    for parts in itertools.product(range(k + 1), repeat=n):
        if sum(parts) != k:
            continue
        if any(x == 0 or x % (p - 1) for x in parts):
            continue
        coeff = math.factorial(k)
        for x in parts:
            coeff //= math.factorial(x)
        coeff = (-1) ** n * coeff % p
        if coeff:
            terms[parts] = (terms.get(parts, 0) + coeff) % p
    return MultiPoly(p, n, terms)


def brute_power_sum(p, n, k):
    """Sum of (v . z)^k over every nonzero v in F_p^n, each power expanded
    by multiplying in one linear factor at a time on exponent tuples."""
    terms = {}
    for v in itertools.product(range(p), repeat=n):
        if not any(v):
            continue
        power = {(0,) * n: 1}
        for _ in range(k):
            nxt = {}
            for e, c in power.items():
                for i, vi in enumerate(v):
                    if vi:
                        key = e[:i] + (e[i] + 1,) + e[i + 1 :]
                        nxt[key] = (nxt.get(key, 0) + c * vi) % p
            power = {e: c for e, c in nxt.items() if c}
        for e, c in power.items():
            terms[e] = (terms.get(e, 0) + c) % p
    return MultiPoly(p, n, terms)


def test_power_sum_frozen_examples():
    assert power_sum(2, 2, 3) == poly(2, 2, {(2, 1): 1, (1, 2): 1})
    for k in (1, 2, 5):
        assert power_sum(2, 1, k) == poly(2, 1, {(k,): 1})
    assert power_sum(3, 1, 1).is_zero()
    assert power_sum(3, 1, 2) == poly(3, 1, {(2,): 2})


def test_power_sum_rejects_k0():
    with pytest.raises(ValueError):
        power_sum(2, 2, 0)


def test_power_sum_matches_multinomial_oracle():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)]:
        for k in range(1, 2 * (p**n - 1) + 3):
            assert power_sum(p, n, k) == naive_power_sum(p, n, k)


def test_power_sum_matches_sum_over_all_vectors():
    for p, n, kmax in [(2, 1, 8), (2, 2, 10), (2, 3, 14), (3, 1, 10), (3, 2, 12), (3, 3, 8), (5, 2, 12)]:
        for k in range(1, kmax + 1):
            assert power_sum(p, n, k) == brute_power_sum(p, n, k), (p, n, k)


def test_chi_y_power_frozen():
    assert chi_y_power(2, 2, 3) == poly(2, 2, {(2, 1): 1, (1, 2): 1})
    assert chi_y_power(3, 1, 2) == poly(3, 1, {(2,): 1})
    assert chi_y_power(3, 1, 1).is_zero()
    # vanishes whenever p - 1 does not divide k
    for k in range(1, 20):
        if k % 4:
            assert chi_y_power(5, 1, k).is_zero()
    for bad in ((2, 2, 0), (2, 0, 3)):
        with pytest.raises(ValueError):
            chi_y_power(*bad)


@pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_splitting_route_equals_minus_the_power_sum(p, n):
    """The production route for y^k classes against the oracle, for every
    k up to the default Dickson dmax 3(p^n - 1)."""
    for k in range(1, 3 * (p**n - 1) + 1):
        assert chi_y_power(p, n, k) == power_sum(p, n, k).neg(), (p, n, k)


def test_no_production_route_calls_power_sum(monkeypatch):
    def forbidden(p, n, k):
        raise AssertionError("power_sum is the oracle only")

    monkeypatch.setattr(dickson, "power_sum", forbidden)
    assert dickson.report(3, 2, 24)["ok"]
    assert nonzero_chi_degrees(2, 3) == [7, 11, 13, 14]
    assert reps.chi_of_rep(reps.regular_rep(2, 2), 3) == poly(2, 2, {(2, 1): 1, (1, 2): 1})


def test_dickson_total_frozen_f2():
    total = dickson_total(2, 1)
    assert total.component(0) == poly(2, 1, {(0,): 1})
    assert total.component(1) == poly(2, 1, {(1,): 1})
    total22 = dickson_total(2, 2)
    assert total22.component(1).is_zero()
    assert total22.component(2) == poly(2, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert total22.component(3) == poly(2, 2, {(2, 1): 1, (1, 2): 1})


def test_dickson_total_is_a_fresh_copy_each_call():
    first = dickson_total(3, 2)
    want = dict(first.terms)
    first.terms.clear()
    first.terms[(1, 1)] = 2
    assert dickson_total(3, 2).terms == want
    assert dickson_total(3, 2) is not dickson_total(3, 2)


def test_dickson_sparsity_and_top_product():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)]:
        q = p**n
        total = dickson_total(p, n)
        allowed = {q - p**i for i in range(n + 1)} | {0}
        assert set(total.components) <= allowed
        # top invariant is the product of all nonzero linear forms
        prod = MultiPoly.const(p, n, 1)
        for coeffs in itertools.product(range(p), repeat=n):
            if any(coeffs):
                form = {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs) if c}
                prod = prod.mul(MultiPoly(p, n, form))
        assert total.component(q - 1) == prod


def test_dickson_total_matches_expanded_product():
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (7, 1)]:
        total = dickson_total(p, n)
        assert max(total.components) == p**n - 1
        assert total.components == dickson_total_by_product(p, n)


def test_alternating_total_frozen_f2():
    total = alternating_chi_total(2, 1, 3)
    for k in (1, 2, 3):
        assert total.component(k) == poly(2, 1, {(k,): 1})


def test_newton_frozen_cases():
    assert newton_check(2, 1, 6)
    assert newton_check(2, 2, 9)
    assert newton_check(3, 1, 8)
    with pytest.raises(ValueError):
        newton_check(3, 2, 3)


def geometric_series_inverse(d_total, dmax):
    """Reference inverse of a total class with constant term 1, up to
    degree dmax: the geometric series sum of (1 - d_total)^j, one
    truncated product per power.  It ends, because 1 - d_total has no
    constant term."""
    one = MultiPoly.const(d_total.p, d_total.nvars, 1)
    step = one.sub(d_total)
    inv = power = one
    while not power.is_zero():
        power = power.mul_truncated(step, dmax)
        inv = inv.add(power)
    return inv


def test_series_quotient_of_one_geometric():
    d = dickson_total(2, 1)  # 1 + z
    inv = series_quotient(MultiPoly.const(2, 1, 1), d, 5)
    for k in range(6):
        assert inv.component(k) == poly(2, 1, {(k,): 1})
    assert d.mul_truncated(inv, 5).component(0) == poly(2, 1, {(0,): 1})
    for k in range(1, 6):
        assert d.mul_truncated(inv, 5).component(k).is_zero()


def test_series_quotient_of_one_times_d_is_one_on_the_quick_grid():
    for p, n in DICKSON_GRID:
        d = dickson_total(p, n)
        m = 3 * (p**n - 1)
        inv = series_quotient(MultiPoly.const(p, n, 1), d, m)
        assert max(inv.components) <= m
        assert d.mul_truncated(inv, m) == MultiPoly.const(p, n, 1), (p, n)


def random_poly(rng, p, nvars, max_degree, nterms):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(max_degree + 1) for _ in range(nvars))
        terms[e] = rng.randrange(p)
    return MultiPoly(p, nvars, terms)


def test_truncated_product_drops_exactly_the_terms_above_dmax():
    rng = random.Random(20261018)
    for p in (2, 3, 5):
        for nvars in (1, 2, 3):
            for _ in range(20):
                a = random_poly(rng, p, nvars, 4, rng.randrange(8))
                b = random_poly(rng, p, nvars, 4, rng.randrange(8))
                full = a.mul(b)
                for dmax in range(-1, 26, 3):
                    kept = {e: c for e, c in full.terms.items() if sum(e) <= dmax}
                    assert a.mul_truncated(b, dmax) == MultiPoly(p, nvars, kept)


def naive_product(a, b):
    """The product term by term on exponent tuples, nothing packed."""
    p = a.p
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return MultiPoly(p, a.nvars, out)


def test_products_match_a_naive_product_on_exponent_tuples():
    rng = random.Random(20261020)
    cases = 0
    for p in (2, 3, 5, 7):
        for nvars in (0, 1, 2, 3):
            zero = MultiPoly.zero(p, nvars)
            for _ in range(15):
                a = random_poly(rng, p, nvars, 5, rng.randrange(8))
                b = random_poly(rng, p, nvars, 5, rng.randrange(8))
                for x, y in ((a, b), (a, zero), (zero, b)):
                    naive = naive_product(x, y)
                    assert x.mul(y) == naive
                    # from -1 (nothing kept) to one above the highest degree, 10 * nvars
                    for dmax in range(-1, 10 * nvars + 2):
                        kept = {e: c for e, c in naive.terms.items() if sum(e) <= dmax}
                        assert x.mul_truncated(y, dmax) == MultiPoly(p, nvars, kept)
                    cases += 1
    assert cases == 4 * 4 * 15 * 3
    # sparse factors far apart in degree
    a = poly(5, 2, {(3000, 1): 2, (0, 2): 3, (1, 0): 1})
    b = poly(5, 2, {(7, 4000): 4, (0, 0): 1})
    assert a.mul(b) == naive_product(a, b)
    assert a.mul_truncated(b, 3001) == poly(5, 2, {(3000, 1): 2, (0, 2): 3, (1, 0): 1})


def test_pow_rejects_negative_exponents(monkeypatch):
    a = poly(3, 2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError, match="k must be >= 0"):
        a.pow(-1)
    products = []
    mul_truncated = MultiPoly.mul_truncated

    def counted(self, other, dmax):
        products.append(other)
        return mul_truncated(self, other, dmax)

    monkeypatch.setattr(MultiPoly, "mul_truncated", counted)
    power = MultiPoly.const(3, 2, 1)
    for k in range(8):
        products.clear()
        assert a.pow(k) == power
        # one squaring per bit below the top, one product per further set bit
        assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)
        power = naive_product(power, a)


def test_series_quotient_requires_unit():
    one = MultiPoly.const(2, 1, 1)
    bad = poly(2, 1, {(1,): 1})
    with pytest.raises(ValueError):
        series_quotient(one, bad, 3)
    with pytest.raises(ValueError):
        series_quotient(one, dickson_total(2, 1), -1)
    with pytest.raises(ContextMismatch):
        series_quotient(MultiPoly.const(2, 2, 1), dickson_total(2, 1), 3)


def test_series_quotient_matches_the_geometric_series():
    for p, n in DICKSON_GRID + ((2, 4), (3, 3)):
        d = dickson_total(p, n)
        top = p**n - 1
        m = 3 * top
        lead = d.component(top).neg()
        assert series_quotient(MultiPoly.const(p, n, 1), d, m) == geometric_series_inverse(d, m), (p, n)
        assert series_quotient(lead, d, m) == lead.mul(geometric_series_inverse(d, m - top)), (p, n)


def test_series_quotient_of_zero_or_below_the_lowest_degree_is_zero():
    d = dickson_total(3, 2)
    lead = d.component(8).neg()
    assert series_quotient(MultiPoly.zero(3, 2), d, 20).is_zero()
    assert series_quotient(lead, d, 7).is_zero()
    assert series_quotient(lead, d, 8) == lead


def test_inverse_route_matches_direct():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        dmax = 3 * (p**n - 1)
        assert chi_total_from_inverse(p, n, dmax) == alternating_chi_total(p, n, dmax)
    with pytest.raises(ValueError):
        chi_total_from_inverse(2, 2, 2)


def test_inverse_route_builds_no_inverse(monkeypatch):
    # the quotient -D_15 / D is formed degree by degree: no series inverse
    # and no product with one; D and A are built before the patch, and the
    # quotient's memo is cleared, so the division runs under it
    expected = alternating_chi_total(2, 4, 45)
    dickson_total(2, 4)
    dickson._quotient_terms.cache_clear()

    def refuse(*args):
        raise AssertionError("the inverse route formed D^-1 or a product")

    monkeypatch.setattr(dickson, "series_inverse", refuse, raising=False)
    for name in ("mul", "mul_truncated", "pow"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    assert chi_total_from_inverse(2, 4, 45) == expected


@pytest.mark.parametrize(
    "p, n, dmax",
    [(2, 3, d) for d in range(7, 22)] + [(3, 2, d) for d in range(8, 25)] + [(2, 4, 15), (2, 4, 45)],
)
def test_newton_product_form_agrees_with_the_quotient_route(p, n, dmax):
    # D is a unit, so D * A = -D_top up to dmax exactly when A is the
    # quotient -D_top / D up to dmax: both routes hold at every dmax
    assert newton_product_check(p, n, dmax) and newton_check(p, n, dmax)


def test_newton_product_form_reads_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("the product form read the series quotient")

    for name in ("series_quotient", "_quotient_terms", "chi_total_from_inverse"):
        monkeypatch.setattr(dickson, name, refuse)
    assert newton_product_check(2, 4, 45)


@pytest.fixture
def cleared_memos():
    """The report's memos emptied before and after the test, so a planted
    fault neither meets a cached answer nor leaves one behind."""
    memos = (dickson._alternating_terms, dickson._quotient_terms)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_a_flipped_chi_coefficient_fails_every_newton_route(monkeypatch, capsys, cleared_memos):
    true_chi_y_power = dickson.chi_y_power

    def flipped(p, n, k):
        poly = true_chi_y_power(p, n, k)
        if k != p**n - 1:
            return poly
        terms = dict(poly.terms)
        first = min(terms)
        terms[first] = (terms[first] + 1) % p
        return MultiPoly(p, n, terms)

    monkeypatch.setattr(dickson, "chi_y_power", flipped)
    assert not newton_check(2, 3, 21)
    assert chi_total_from_inverse(2, 3, 21) != alternating_chi_total(2, 3, 21)
    assert not newton_product_check(2, 3, 21)

    from modchar.cli import EXIT_CHECK_FAILURE, main

    assert main(["verify", "--suite", "dickson"]) == EXIT_CHECK_FAILURE
    assert capsys.readouterr().out.startswith("FAIL  dickson-identities")


def test_quotient_memo_returns_fresh_copies():
    first = chi_total_from_inverse(3, 2, 24)
    want = dict(first.terms)
    first.terms.clear()
    first.terms[(1, 1)] = 2
    assert chi_total_from_inverse(3, 2, 24).terms == want
    assert chi_total_from_inverse(3, 2, 24) is not chi_total_from_inverse(3, 2, 24)
    assert dickson._quotient_terms.cache_info().maxsize == 64


def test_product_identity_frozen():
    assert product_identity_check(2, 1, 0) == 1  # chi_{y^2} = D_1^2 over F_2
    assert product_identity_check(2, 2, 1) in (1, -1)
    assert product_identity_check(3, 1, 0) == 1  # chi_{y^4} = z^4 = (D_2)^2
    with pytest.raises(ValueError):
        product_identity_check(3, 1, 2)


def test_nonzero_scan_matches_special_degrees():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        q = p**n
        special = sorted({2 * q - p**i - 1 for i in range(n + 1)})
        assert nonzero_chi_degrees(p, n) == special


def test_algebraic_independence_witness():
    assert algebraic_independence_check(2, 2)
    assert algebraic_independence_check(3, 2)


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_chi_y_power_reads_chi_basic_term_for_term(p, n):
    # every factor of a y-power class is a y-power, so its exponent names
    # it, and the class read as a polynomial keeps chi_basic's terms and order
    for k in range(p - 1, 2 * (p**n - 1) + 1, p - 1):
        tc = chi.chi_basic(p, 1, Monomial((0,), (k,)), n)
        assert all(m.ext == (0,) for tup in tc.terms for m in tup)
        want = [(tuple(m.pows[0] for m in tup), c) for tup, c in tc.terms.items()]
        assert list(chi_y_power(p, n, k).terms.items()) == want, (p, n, k)


def test_multipoly_substitute():
    # z1 -> Z1, z2 -> Z2 + Z3 over F_2
    base = poly(2, 2, {(2, 1): 1, (1, 2): 1})
    got = base.substitute([[1, 0, 0], [0, 1, 1]], 3)
    want = poly(2, 3, {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (1, 0, 2): 1})
    assert got == want
    assert got.sub(want).is_zero() and got.add(want).is_zero()
    assert poly(3, 1, {(1,): 2}).neg() == poly(3, 1, {(1,): 1})
    assert poly(3, 1, {(1,): 2}).scale(3).is_zero()
    for other in (base, poly(3, 3, {(1, 0, 0): 1})):
        with pytest.raises(ContextMismatch):
            got.add(other)
        with pytest.raises(ContextMismatch):
            got.mul(other)
    with pytest.raises(ValueError):
        poly(2, 2, {(1,): 1})


def naive_substitute(source, rows, nvars_new):
    """Each term expanded one linear factor at a time, on exponent tuples."""
    p = source.p
    out = {}
    for exps, c in source.terms.items():
        term = {(0,) * nvars_new: c}
        for row, e in zip(rows, exps):
            for _ in range(e):
                nxt = {}
                for key, v in term.items():
                    for j, a in enumerate(row):
                        if a % p:
                            bumped = key[:j] + (key[j] + 1,) + key[j + 1 :]
                            nxt[bumped] = (nxt.get(bumped, 0) + v * a) % p
                term = nxt
        for key, v in term.items():
            out[key] = (out.get(key, 0) + v) % p
    return MultiPoly(p, nvars_new, out)


def test_substitute_matches_naive_expansion():
    rng = random.Random(20261019)
    cases = 0
    for p in (2, 3, 5, 7):
        for _ in range(75):
            nvars, nvars_new = rng.randrange(1, 4), rng.randrange(1, 4)
            source = random_poly(rng, p, nvars, 5, rng.randrange(7))  # may be empty
            rows = [[rng.randrange(-p, p) for _ in range(nvars_new)] for _ in range(nvars)]
            if rng.random() < 0.3:
                rows[rng.randrange(nvars)] = [0] * nvars_new
            assert source.substitute(rows, nvars_new) == naive_substitute(source, rows, nvars_new)
            cases += 1
    assert cases == 300
    assert MultiPoly.zero(3, 2).substitute([[1, 2], [0, 0]], 2).is_zero()
    with pytest.raises(ValueError):
        poly(2, 2, {(1, 1): 1}).substitute([[1, 0]], 2)
    with pytest.raises(ValueError):
        poly(2, 2, {(1, 1): 1}).substitute([[1, 0], [1]], 2)


def test_substitute_reaches_high_powers_without_recursion():
    got = poly(2, 1, {(3000,): 1}).substitute([[1, 1]], 2)
    # (Z1 + Z2)^3000 over F_2 by Lucas: one term per pair of disjoint digit sets
    assert len(got.terms) == 2 ** bin(3000).count("1")
    assert poly(2, 1, {(3000,): 1}).substitute([[1]], 1) == poly(2, 1, {(3000,): 1})


def test_multipoly_render_canonical():
    q = poly(2, 2, {(2, 1): 1, (1, 2): 1})
    assert q.render() == "z1^2 z2 + z1 z2^2"


def test_power_sum_frobenius_stability():
    # p-th powers of linear forms are linear in z^p: s_{pk} = (s_k)^p
    for p, n in [(2, 2), (3, 1), (3, 2)]:
        for k in range(1, 8):
            assert power_sum(p, n, p * k) == power_sum(p, n, k).pow(p)
