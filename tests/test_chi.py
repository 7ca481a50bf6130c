"""Classes of basic representations: closed formula, nonvanishing
search, digit-sum predicates, witnesses, tables, tuple certificates.

Primary oracle: a direct enumeration of admissible splittings with
big-integer multinomials, plus the power-sum route from the dickson
module (an entirely different computation path)."""

import itertools
import math
import operator

import pytest

from modchar import chi, coalg, dickson, verify
from modchar.chi import (
    KIND_MIXED,
    KIND_Y_POWER,
    STATUS_NONNILPOTENT,
    STATUS_NONZERO,
    STATUS_UNDEFINED,
    STATUS_ZERO,
    chi_basic,
    digit_sum,
    indecomposable_tuples,
    is_chi_nonzero,
    min_m_for_digit_sum,
    r1_predicate,
    splitting_is_admissible,
    universal_table,
    wedge_split_check,
    witness_alpha,
    witness_degree,
    witness_splitting,
)
from modchar.mono import (
    Monomial,
    NotInvariant,
    TensorClass,
    degree,
    enumerate_invariant_basis,
    is_invariant,
)


def y(k):
    return Monomial((0,), (k,))


def xy(k):
    return Monomial((1,), (k,))


# -- independent oracle: direct splitting enumeration -------------------------


def naive_chi_terms(p, r, alpha, n):
    """All admissible splittings by brute force with factorial
    multinomials, signed only by the global (-1)^(n-1) (valid when no
    exterior part splits, in particular for r = 1)."""
    assert sum(alpha.ext) <= 1
    terms = {}

    def split_coordinate(b):
        return [c for c in itertools.product(range(b + 1), repeat=n) if sum(c) == b]

    coord_options = [split_coordinate(b) for b in alpha.pows]
    ext_options = []
    for k, a in enumerate(alpha.ext):
        if a:
            ext_options.append([tuple(1 if i == j else 0 for i in range(n)) for j in range(n)])
        else:
            ext_options.append([(0,) * n])
    for ext_choice in itertools.product(*ext_options):
        for pow_choice in itertools.product(*coord_options):
            coeff = 1
            for k, parts in enumerate(pow_choice):
                total = math.factorial(alpha.pows[k])
                for x in parts:
                    total //= math.factorial(x)
                coeff = coeff * total % p
            if not coeff:
                continue
            factors = []
            ok = True
            for i in range(n):
                ext_i = tuple(ext_choice[k][i] for k in range(r))
                pows_i = tuple(pow_choice[k][i] for k in range(r))
                m = Monomial(ext_i, pows_i)
                if degree(m, p) == 0 or not is_invariant(m, p):
                    ok = False
                    break
                factors.append(m)
            if ok:
                key = tuple(factors)
                terms[key] = (terms.get(key, 0) + (-1) ** (n - 1) * coeff) % p
    return {k: v for k, v in terms.items() if v}


# -- chi_basic ---------------------------------------------------------------


def test_chi_identity_case():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        alpha = witness_alpha(p, r, 1, KIND_Y_POWER)
        tc = chi_basic(p, r, alpha, 1)
        assert tc.terms == {(alpha,): 1}


def test_chi_degree_zero_convention():
    tc = chi_basic(2, 1, Monomial.unit(1), 3)
    assert tc.is_zero()


def test_chi_frozen_p2_examples():
    tc = chi_basic(2, 1, y(3), 2)
    assert tc.terms == {(y(1), y(2)): 1, (y(2), y(1)): 1}
    assert chi_basic(2, 1, y(2), 2).is_zero()


def test_chi_rejects_non_invariant():
    with pytest.raises(NotInvariant):
        chi_basic(3, 1, y(1), 2)
    with pytest.raises(NotInvariant):
        chi._check_query(3, 1, y(1), 2)


def test_chi_rejects_exterior_generators_at_p2():
    # every monomial is invariant at q = 2, but p = 2 has no exterior generators
    for alpha in (Monomial((1,), (0,)), Monomial((1,), (1,))):
        with pytest.raises(ValueError, match="no exterior generators"):
            chi_basic(2, 1, alpha, 2)
        with pytest.raises(ValueError, match="no exterior generators"):
            is_chi_nonzero(2, 1, alpha, 2)


def test_chi_matches_naive_enumeration_r1():
    for p, n in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        for m in range(1, 11):
            alpha = y(m)
            if not is_invariant(alpha, p):
                continue
            assert chi_basic(p, 1, alpha, n).terms == naive_chi_terms(p, 1, alpha, n)
        if p != 2:
            for m in range(1, 11):
                alpha = xy(m)
                if not is_invariant(alpha, p):
                    continue
                assert (
                    chi_basic(p, 1, alpha, n).terms == naive_chi_terms(p, 1, alpha, n)
                )


def test_pruned_expansion_full_grid():
    # the quick profile keeps the basis monomials at n = 2 only
    result = verify.suite_pruned_expansion("full")
    assert result.ok, result.detail
    assert result.detail.startswith("148 classes")


def naive_chi_by_word_expansion(p, r, alpha, n):
    """Second independent oracle, valid for any exterior part: drop each
    generator symbol of the word into one of n buckets; appending an
    odd-degree symbol to bucket i flips the sign once per odd symbol
    already sitting in a later bucket.  Keep distributions whose buckets
    are all nonzero and invariant, with the global (-1)^(n-1).

    The word lists the x symbols, then the y symbols, so a word's sign
    is set by the buckets of its x symbols.  A bucket holds an int tuple
    of exponents (its x exponents, then its y exponents), and a word's n
    buckets are packed into one int, each exponent in `width` bits, as
    the sum of one increment per symbol.  Signs are summed per packed
    int, and each distinct bucket is tested once."""
    slots = [k for k, a in enumerate(alpha.ext) if a]
    n_x = len(slots)
    for k, b in enumerate(alpha.pows):
        slots.extend([r + k] * b)
    width = len(slots).bit_length()
    incs = [[1 << width * (2 * r * i + slot) for i in range(n)] for slot in slots]
    x_incs, y_incs = incs[:n_x], incs[n_x:]
    sums = {}
    for xs in itertools.product(range(n), repeat=n_x):
        sign = 1
        odd_in_bucket = [0] * n
        for bucket in xs:
            if p != 2:  # an x symbol is odd unless p = 2
                if sum(odd_in_bucket[bucket + 1 :]) % 2:
                    sign = -sign
                odd_in_bucket[bucket] += 1
        base = sum(map(operator.getitem, x_incs, xs))
        for ys in itertools.product(range(n), repeat=len(y_incs)):
            key = base + sum(map(operator.getitem, y_incs, ys))
            sums[key] = sums.get(key, 0) + sign
    mask = (1 << width) - 1
    kept = {}  # bucket -> its Monomial when of nonzero degree and invariant, else None
    terms = {}
    for key, total in sums.items():
        factors = []
        for i in range(n):
            bucket = tuple(key >> width * (2 * r * i + j) & mask for j in range(2 * r))
            if bucket not in kept:
                m = Monomial(bucket[:r], bucket[r:])
                kept[bucket] = m if degree(m, p) and is_invariant(m, p) else None
            factors.append(kept[bucket])
        if None not in factors and (val := total * (-1) ** (n - 1) % p):
            terms[tuple(factors)] = val
    return terms


def test_chi_matches_word_expansion_with_split_exterior():
    # q = 9: the exterior pair splits across factors, exercising signs
    alpha = Monomial((1, 1), (5, 5))
    for n in (2, 3):
        got = chi_basic(3, 2, alpha, n).terms
        want = naive_chi_by_word_expansion(3, 2, alpha, n)
        assert got == want
    split = (Monomial((0, 1), (5, 0)), Monomial((1, 0), (0, 5)))
    # shuffle sign -1 times the global (-1)^(n-1)
    assert chi_basic(3, 2, alpha, 2).coefficient(split) == 1


def test_chi_matches_word_expansion_q4_and_q9():
    for p, r, alpha, n in [
        (2, 2, Monomial((0, 0), (1, 1)), 2),
        (2, 2, Monomial((0, 0), (2, 2)), 2),
        (2, 2, Monomial((0, 0), (3, 3)), 3),
        (3, 2, Monomial((1, 1), (1, 1)), 2),
        (3, 1, Monomial((1,), (5,)), 2),
    ]:
        got = chi_basic(p, r, alpha, n).terms
        assert got == naive_chi_by_word_expansion(p, r, alpha, n)


def test_chi_matches_power_sum_oracle_spot():
    for p, n, k in [(2, 2, 3), (3, 1, 2), (3, 2, 8), (5, 1, 4)]:
        alpha = y(k)
        lhs = dickson.tensor_to_poly(chi_basic(p, 1, alpha, n))
        assert lhs == dickson.power_sum(p, n, k).neg()


def test_chi_signs_odd_p():
    # chi(y^8, 2) over F_3 contains (y^2, y^6) with coefficient -C(8,2)
    tc = chi_basic(3, 1, y(8), 2)
    assert tc.coefficient((y(2), y(6))) == (-math.comb(8, 2)) % 3


def test_every_factor_invariant_and_positive():
    for p, r, n in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        alpha = witness_alpha(p, r, min(n, 2), KIND_Y_POWER)
        for tup in chi_basic(p, r, alpha, n).terms:
            for m in tup:
                assert degree(m, p) > 0
                assert is_invariant(m, p)


# -- digit sums ---------------------------------------------------------------


def test_digit_sum_frozen():
    assert digit_sum(2, 7) == 3
    assert digit_sum(3, 8) == 4
    assert digit_sum(5, 0) == 0


def test_min_m_frozen():
    assert min_m_for_digit_sum(2, 3) == 7
    assert min_m_for_digit_sum(3, 5) == 17
    assert min_m_for_digit_sum(7, 0) == 0


def test_min_m_brute_force_small():
    for p in (2, 3, 5):
        for s in range(0, 10):
            want = min_m_for_digit_sum(p, s)
            for m in range(want):
                assert digit_sum(p, m) != s
            assert digit_sum(p, want) == s


# -- nonvanishing -------------------------------------------------------------


def test_is_chi_nonzero_frozen():
    assert is_chi_nonzero(2, 1, y(3), 2)
    assert not is_chi_nonzero(2, 1, y(2), 2)
    assert is_chi_nonzero(3, 1, y(8), 2)
    assert not is_chi_nonzero(2, 2, Monomial((0, 0), (1, 1)), 2)


def test_is_chi_nonzero_matches_expansion():
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        for m in range(0, 26):
            alpha = y(m)
            if not is_invariant(alpha, p):
                continue
            assert is_chi_nonzero(p, 1, alpha, n) == (not chi_basic(p, 1, alpha, n).is_zero())
    # extension field: q = 4, rank 2
    for b0 in range(0, 7):
        for b1 in range(0, 7):
            alpha = Monomial((0, 0), (b0, b1))
            if not is_invariant(alpha, 2):
                continue
            assert is_chi_nonzero(2, 2, alpha, 2) == (
                not chi_basic(2, 2, alpha, 2).is_zero()
            )


def test_r1_predicate_frozen():
    assert r1_predicate(2, "y", 3, 2) == STATUS_NONNILPOTENT
    assert r1_predicate(3, "xy", 1, 1) == STATUS_NONZERO
    assert r1_predicate(3, "y", 2, 2) == STATUS_ZERO
    assert r1_predicate(3, "y", 1, 1) == STATUS_UNDEFINED
    assert r1_predicate(3, "xy", 2, 1) == STATUS_UNDEFINED
    with pytest.raises(ValueError):
        r1_predicate(2, "xy", 3, 1)


def test_r1_predicate_matches_search():
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        kinds = ("y",) if p == 2 else ("y", "xy")
        for kind in kinds:
            for m in range(0, 61):
                alpha = y(m) if kind == "y" else xy(m)
                status = r1_predicate(p, kind, m, n)
                if status == STATUS_UNDEFINED:
                    assert not is_invariant(alpha, p)
                    continue
                assert is_invariant(alpha, p)
                nonzero = is_chi_nonzero(p, 1, alpha, n)
                assert nonzero == (status in (STATUS_NONNILPOTENT, STATUS_NONZERO))


# -- witnesses ----------------------------------------------------------------


def test_witness_frozen_examples():
    assert witness_alpha(3, 1, 2, KIND_Y_POWER) == y(8)
    assert witness_degree(3, 1, 2, KIND_Y_POWER) == 16
    assert witness_alpha(3, 1, 2, KIND_MIXED) == xy(5)
    assert witness_degree(3, 1, 2, KIND_MIXED) == 11
    assert witness_alpha(2, 1, 3, KIND_Y_POWER) == y(7)
    assert witness_degree(2, 1, 3, KIND_Y_POWER) == 7
    with pytest.raises(ValueError):
        witness_alpha(2, 1, 2, KIND_MIXED)


def test_witness_splittings_admissible():
    for p in (2, 3, 5):
        kinds = [KIND_Y_POWER] if p == 2 else [KIND_Y_POWER, KIND_MIXED]
        for r in (1, 2):
            for n in (1, 2, 3):
                for kind in kinds:
                    alpha = witness_alpha(p, r, n, kind)
                    factors = witness_splitting(p, r, n, kind)
                    assert splitting_is_admissible(p, r, alpha, factors)
                    assert degree(alpha, p) == witness_degree(p, r, n, kind)


def test_witness_splitting_appears_in_expansion():
    p, r, n = 3, 1, 2
    alpha = witness_alpha(p, r, n, KIND_MIXED)
    tc = chi_basic(p, r, alpha, n)
    key = tuple(witness_splitting(p, r, n, KIND_MIXED))
    assert tc.coefficient(key) != 0


# -- tables and certificates --------------------------------------------------


def test_universal_table_frozen():
    rows = universal_table(3, 1, 2)
    assert {row.N for row in rows} == set(range(2, 10))
    for n_dim in range(2, 10):
        sub = [row for row in rows if row.N == n_dim]
        assert {(row.degree, row.status) for row in sub} == {
            (16, STATUS_NONNILPOTENT),
            (11, STATUS_NONZERO),
        }
    rows2 = universal_table(2, 1, 2)
    assert {row.N for row in rows2} == {2, 3, 4}
    assert all(row.degree == 3 and row.status == STATUS_NONNILPOTENT for row in rows2)
    rows3 = universal_table(2, 2, 1)
    assert [row.N for row in rows3] == [2]
    assert rows3[0].degree == 2
    assert rows3[0].alpha == Monomial((0, 0), (1, 1))


def test_universal_table_digit_rows():
    rows = universal_table(2, 1, 2, max_degree=7)
    degrees = {row.degree for row in rows if row.N == 2}
    # every degree with at least two binary ones up to 7
    assert degrees == {3, 5, 6, 7}


def test_indecomposable_tuples_frozen():
    got = indecomposable_tuples(3, 2, 10)
    as_set = {t for t, _ in got}
    assert (2, 6) in as_set
    assert (2, 2) not in as_set
    assert dict(got)[(2, 6)] == 16
    got2 = indecomposable_tuples(2, 2, 7)
    tuples2 = [t for t, _ in got2]
    assert tuples2 == [(1, 2), (1, 4), (2, 4), (1, 6), (2, 5), (3, 4)]
    assert dict(got2)[(1, 2)] == 3


def test_indecomposable_tuples_certify_nonzero_pairings():
    # each certified tuple is carry-free, so the multinomial is a unit
    from modchar.coalg import multinomial_mod_p, no_carry

    for p, n in [(2, 2), (3, 2), (5, 1)]:
        for parts, deg in indecomposable_tuples(p, n, 3 * (p**n - 1)):
            assert all(x > 0 and x % (p - 1) == 0 for x in parts)
            assert no_carry(p, parts)
            assert multinomial_mod_p(p, parts) != 0
            total = sum(parts)
            assert deg == (total if p == 2 else 2 * total)


def tuples_by_brute_force(p, n, max_total):
    """Every nondecreasing n-tuple of positive multiples of p - 1 with
    total <= max_total, kept when its parts' digit sums add up to the
    total's (carry-free), in (total, tuple) order."""

    def s(m):
        total = 0
        while m:
            m, d = divmod(m, p)
            total += d
        return total

    parts = range(p - 1, max_total + 1, p - 1)
    found = [
        (t, sum(t) if p == 2 else 2 * sum(t))
        for t in itertools.combinations_with_replacement(parts, n)
        if sum(t) <= max_total and s(sum(t)) == sum(s(x) for x in t)
    ]
    return sorted(found, key=lambda item: (sum(item[0]), item[0]))


@pytest.mark.parametrize(
    "p,n,max_total",
    [(2, 1, 10), (2, 2, 7), (2, 3, 40), (2, 4, 30), (3, 2, 60), (3, 3, 80),
     (3, 4, 60), (5, 2, 100), (5, 4, 200), (7, 2, 150), (3, 2, 1), (2, 5, 30),
     (2, 3, 200), (5, 3, 600)],
)
def test_indecomposable_tuples_match_brute_force(p, n, max_total):
    assert indecomposable_tuples(p, n, max_total) == tuples_by_brute_force(p, n, max_total)


def test_indecomposable_tuples_empty_below_p_to_the_n():
    # each part has digit sum >= p - 1, so n parts need a total whose digit
    # sum is >= n(p - 1); the least such total is p^n - 1 (242 for (3,5)),
    # too far for the brute force above
    assert indecomposable_tuples(3, 5, 241) == []
    got = indecomposable_tuples(3, 5, 242)
    assert got and all(sum(t) == 242 for t, _ in got)


def test_nonzero_classes_square_to_nonzero():
    # polynomial images live in a polynomial ring, so nonzero classes
    # stay nonzero under squaring (non-nilpotence surrogate)
    for p, n in [(3, 1), (3, 2), (5, 1)]:
        for m in range(1, 2 * (p**n - 1) + 1):
            alpha = y(m)
            if not is_invariant(alpha, p):
                continue
            image = dickson.tensor_to_poly(chi_basic(p, 1, alpha, n))
            if image.is_zero():
                continue
            assert not image.mul(image).is_zero()


# -- wedge consistency --------------------------------------------------------


def test_wedge_split_frozen():
    assert wedge_split_check(2, 1, y(3), 1, 1)
    assert wedge_split_check(2, 2, Monomial((0, 0), (1, 1)), 1, 1)
    assert wedge_split_check(3, 1, y(8), 1, 1)
    assert wedge_split_check(3, 1, xy(5), 1, 1)


def test_wedge_split_various_ranks():
    for a, b in [(1, 2), (2, 1), (2, 2), (1, 3)]:
        assert wedge_split_check(2, 1, y(7), a, b)
        assert wedge_split_check(3, 1, y(8), a, b)


# -- the proper-split memo -------------------------------------------------------

# every basis monomial of degrees 25..34 over GF(4), expanded at n = 3
MEMO_BAND = [m for d in range(25, 35) for m in enumerate_invariant_basis(2, 2, d)]


def _count_coproducts(monkeypatch):
    calls = []
    inner = coalg.coproduct

    def counted(p, r, m):
        calls.append(m)
        return inner(p, r, m)

    monkeypatch.setattr(coalg, "coproduct", counted)
    return calls


def test_band_splits_each_first_factor_once(monkeypatch):
    chi._proper_splits.cache_clear()
    calls = _count_coproducts(monkeypatch)
    for m in MEMO_BAND:
        chi_basic(2, 2, m, 3)
    # without the memo each chi_basic call splits its own first factors,
    # 1,165 coproducts over this band
    assert len(calls) == len(set(calls)) == 209


def test_memo_results_match_cold_warm_and_unpruned(monkeypatch):
    chi._proper_splits.cache_clear()
    cold = [chi_basic(2, 2, m, 3) for m in MEMO_BAND]
    calls = _count_coproducts(monkeypatch)
    warm = [chi_basic(2, 2, m, 3) for m in MEMO_BAND]
    assert not calls and warm == cold
    assert sum(not tc.is_zero() for tc in cold) > 0
    for m, tc in zip(MEMO_BAND, cold):
        unpruned = {
            tup: c  # (-1)^(n - 1) = 1 at n = 3
            for tup, c in coalg.iterated_coproduct(2, 2, m, 3).items()
            if all(degree(f, 2) for f in tup)
        }
        assert tc == TensorClass(2, 2, 3, unpruned)
        assert tc == TensorClass(tc.p, tc.r, tc.n, dict(tc.terms))


def test_memo_is_bounded():
    maxsize = chi._proper_splits.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
