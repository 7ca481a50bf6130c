"""Carry-free arithmetic and the coproduct, checked against independent
oracles: big-integer factorials for the coefficients and a symbol-level
primitive expansion for the coproduct itself."""

import itertools
import math
import random

import pytest

from modchar import coalg, verify
from modchar.coalg import (
    coproduct,
    gaussian_binomial,
    iterated_coproduct,
    lucas_binomial,
    multinomial_mod_p,
    no_carry,
)
from modchar.mono import (
    Monomial,
    NotInvariant,
    degree,
    enumerate_invariant_basis,
    is_invariant,
)

# -- oracles -----------------------------------------------------------------


def naive_coproduct(p, r, mono):
    """Independent expansion: write the monomial as a word of primitive
    generator symbols, distribute each symbol left or right, track the
    sign by counting moves of odd symbols past the right word, and
    collect equal (left, right) exponent pairs.  Finally filter by the
    weight-divisibility condition."""
    symbols = []
    for k, a in enumerate(mono.ext):
        if a:
            symbols.append(("x", k))
    for k, b in enumerate(mono.pows):
        symbols.extend([("y", k)] * b)
    terms = {}
    for choice in itertools.product((0, 1), repeat=len(symbols)):
        sign = 1
        right_odd = 0  # odd-degree symbols accumulated on the right
        left_ext = [0] * r
        left_pows = [0] * r
        right_ext = [0] * r
        right_pows = [0] * r
        for sym, side in zip(symbols, choice):
            kind, k = sym
            odd = kind == "x" and p != 2
            if side == 0:
                if odd and right_odd % 2:
                    sign = -sign
                if kind == "x":
                    left_ext[k] += 1
                else:
                    left_pows[k] += 1
            else:
                if odd:
                    right_odd += 1
                if kind == "x":
                    right_ext[k] += 1
                else:
                    right_pows[k] += 1
        key = (
            Monomial(tuple(left_ext), tuple(left_pows)),
            Monomial(tuple(right_ext), tuple(right_pows)),
        )
        terms[key] = (terms.get(key, 0) + sign) % p
    out = {}
    for (left, right), c in terms.items():
        if c and is_invariant(left, p) and is_invariant(right, p):
            out[(left, right)] = c
    return out


def brute_coproduct(p, r, mono):
    """Independent of the digit walk: every left exterior subset with its
    shuffle sign (one -1 per exterior generator moved left past a later
    one kept right), every b' <= b with the product of math.comb(b_k, b'_k)
    mod p, kept when the left factor's weight vanishes mod q - 1."""
    q1 = p**r - 1
    out = {}
    for left_ext in itertools.product(*[range(a + 1) for a in mono.ext]):
        right_ext = tuple(a - la for a, la in zip(mono.ext, left_ext))
        moves = sum(1 for i in range(r) for j in range(i + 1, r) if right_ext[i] and left_ext[j])
        sign = -1 if p != 2 and moves % 2 else 1
        for left_pows in itertools.product(*[range(b + 1) for b in mono.pows]):
            w = sum(p**k * (a + b) for k, (a, b) in enumerate(zip(left_ext, left_pows)))
            if q1 > 1 and w % q1:
                continue
            coeff = sign * math.prod(math.comb(b, lb) for b, lb in zip(mono.pows, left_pows)) % p
            if coeff:
                right_pows = tuple(b - lb for b, lb in zip(mono.pows, left_pows))
                out[(Monomial(left_ext, left_pows), Monomial(right_ext, right_pows))] = coeff
    return out


def factorial_multinomial(parts):
    total = math.factorial(sum(parts))
    for x in parts:
        total //= math.factorial(x)
    return total


# -- binomials ---------------------------------------------------------------


def test_lucas_frozen_examples():
    assert lucas_binomial(2, 3, 1) == 1  # C(3,1) = 3
    assert lucas_binomial(3, 4, 2) == 0  # C(4,2) = 6
    assert lucas_binomial(7, 100, 0) == 1
    assert lucas_binomial(5, 3, 4) == 0  # k > m


def test_lucas_against_factorial_oracle():
    for p in (2, 3, 5, 7):
        for m in range(0, 120):
            for k in range(0, m + 1):
                assert lucas_binomial(p, m, k) == math.comb(m, k) % p


def test_lucas_at_two_on_big_ints():
    # k within 12 of 0 or of m keeps math.comb cheap for m up to 2^70
    rng = random.Random(2)
    for bits in (1, 2, 7, 33, 64, 70):
        for _ in range(6):
            m = rng.getrandbits(bits) | (1 << (bits - 1))
            ks = {*range(0, min(m, 12) + 1), *range(max(0, m - 12), m + 1), m + 1, m + 5, 2 * m}
            for k in ks:
                assert lucas_binomial(2, m, k) == math.comb(m, k) % 2, (m, k)
    assert lucas_binomial(2, 2**70 - 1, 2**69 + 12345) == 1  # every bit of m is set
    assert lucas_binomial(2, 2**70, 2**69) == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lucas_at_odd_primes_digit_by_digit(p):
    # every digit of k is 0, equal to m's digit, above it, or in between,
    # checked against the product of exact digit binomials and math.comb
    rng = random.Random(p)
    for _ in range(300):
        m_digits = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
        k_digits = [rng.choice((0, d, d + 1, rng.randrange(d + 1))) % p for d in m_digits]
        m = sum(d * p**t for t, d in enumerate(m_digits))
        k = sum(e * p**t for t, e in enumerate(k_digits))
        want = math.prod(math.comb(d, e) for d, e in zip(m_digits, k_digits)) % p
        assert lucas_binomial(p, m, k) == want == math.comb(m, k) % p, (m, k)


def _no_carry_by_columns(p, parts):
    """Every base-p digit column of the parts sums below p."""
    parts = list(parts)
    while any(parts):
        if sum(x % p for x in parts) >= p:
            return False
        parts = [x // p for x in parts]
    return True


def test_no_carry_at_two_on_big_ints():
    # parts cut from one random mask never share a bit; one shared bit
    # added to two of them makes a carry
    rng = random.Random(3)
    for bits in (8, 64, 70, 200):
        for _ in range(50):
            mask = rng.getrandbits(bits)
            owners = [rng.randrange(4) for _ in range(bits)]
            parts = [0] * 4
            for t in range(bits):
                parts[owners[t]] |= mask & 1 << t
            assert no_carry(2, parts) and _no_carry_by_columns(2, parts)
            t = rng.randrange(bits)
            clashing = [parts[0] | 1 << t, parts[1] | 1 << t, *parts[2:]]
            assert not no_carry(2, clashing) and not _no_carry_by_columns(2, clashing)
            loose = [rng.getrandbits(bits) for _ in range(rng.randrange(1, 4))]
            assert no_carry(2, loose) == _no_carry_by_columns(2, loose)


BIG_P = 1000003


def _comb_product(parts):
    """The multinomial as a product of exact binomials, one per part."""
    out, total = 1, 0
    for x in parts:
        total += x
        out *= math.comb(total, x)
    return out


# each (m, k) keeps min(k, m - k) small, so math.comb stays cheap at p ~ 10^6
@pytest.mark.parametrize(
    "m, k",
    [
        ((BIG_P - 1) + (BIG_P - 2) * BIG_P, (BIG_P - 4) + (BIG_P - 2) * BIG_P),
        ((BIG_P - 2) + (BIG_P - 1) * BIG_P, (BIG_P - 7) + (BIG_P - 1) * BIG_P),
        (1 + (BIG_P - 1) * BIG_P, (BIG_P - 1) + (BIG_P - 2) * BIG_P),  # carry: 0
        (BIG_P - 1, BIG_P - 3),
        (3 + 4 * BIG_P, 2),
        (3 + 4 * BIG_P, 1 + 4 * BIG_P),
        (BIG_P + 1, 2),  # carry: 0
        (5 * BIG_P**2 + 7, 6),
        (5 * BIG_P**2 + 7, 5 * BIG_P**2 + 2),
    ],
)
def test_lucas_at_a_large_prime(m, k):
    assert lucas_binomial(BIG_P, m, k) == math.comb(m, k) % BIG_P


@pytest.mark.parametrize(
    "parts",
    [
        (BIG_P - 3, 2),
        (2, BIG_P - 3),
        (BIG_P - 2, 1, 1),  # carry: 0
        (1, 2, 3),
        (7, 0, 5 * BIG_P**2),
        (BIG_P - 1, 1),  # carry: 0
    ],
)
def test_multinomial_at_a_large_prime(parts):
    assert multinomial_mod_p(BIG_P, parts) == _comb_product(parts) % BIG_P


def test_digit_binomial_memo_keeps_primes_apart():
    # the same digit pair read under each prime in turn: a memo keyed
    # without p would hand one prime's residue to the next
    coalg._digit_binomial.cache_clear()
    for _ in range(2):
        for d in range(7):
            for e in range(d + 1):
                for p in (2, 3, 5, 7):
                    if d < p:
                        assert coalg._digit_binomial(p, d, e) == math.comb(d, e) % p
        for m in range(60):
            for k in range(m + 1):
                for p in (2, 3, 5, 7):
                    assert lucas_binomial(p, m, k) == math.comb(m, k) % p
                    assert multinomial_mod_p(p, (k, m - k)) == math.comb(m, k) % p


def test_digit_binomial_memo_is_bounded():
    maxsize = coalg._digit_binomial.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


def test_arithmetic_suite_catches_a_wrong_digit_binomial(monkeypatch):
    right = coalg._digit_binomial

    def wrong(p, d, e):
        return 4 if (p, d, e) == (7, 5, 2) else right(p, d, e)  # C(5,2) = 3 mod 7

    monkeypatch.setattr(coalg, "_digit_binomial", wrong)
    result = verify.suite_arithmetic("quick")
    assert not result.ok
    assert result.detail == "binomial p=7 C(5,2)"


def test_no_carry_frozen_examples():
    assert no_carry(3, (2, 6))  # 02 + 20 in base 3
    assert not no_carry(2, (1, 1))
    assert no_carry(5, (17,))


def test_multinomial_frozen_examples():
    assert multinomial_mod_p(3, (2, 6)) == 1  # C(8,2) = 28
    assert multinomial_mod_p(2, (1, 2)) == 1  # C(3,1) = 3
    assert multinomial_mod_p(7, (9,)) == 1


def test_multinomial_against_factorial_oracle():
    for p in (2, 3, 5):
        for parts in itertools.product(range(9), repeat=3):
            got = multinomial_mod_p(p, parts)
            assert got == factorial_multinomial(parts) % p
            assert (got != 0) == no_carry(p, parts)


def test_digit_sum_additivity_equivalence():
    def s(p, m):
        return sum(int(d) for d in _digits(p, m))

    def _digits(p, m):
        out = []
        while m:
            out.append(m % p)
            m //= p
        return out

    # every pair below p^4, below 2^6 for p = 2 and below 7^3 for p = 7
    # (7^4 squared is 5.8M pairs)
    for p, bound in ((2, 2**6), (3, 3**4), (5, 5**4), (7, 7**3)):
        sums = [s(p, m) for m in range(2 * bound)]
        for a in range(bound):
            for b in range(bound):
                assert no_carry(p, (a, b)) == (sums[a + b] == sums[a] + sums[b]), (p, a, b)


def test_gaussian_binomial_values_and_congruence():
    # Grassmannian point counts over F_2: lines in F_2^2, F_2^3, planes in F_2^4
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    for q in (2, 3, 4, 5, 8, 9):
        for a in range(0, 9):
            for b in range(0, a + 1):
                assert gaussian_binomial(a, b, q) % q == 1 % q


def test_gaussian_binomial_pascal_recurrence():
    for q in (2, 3, 4):
        for a in range(1, 9):
            for b in range(1, a):
                assert gaussian_binomial(a, b, q) == gaussian_binomial(
                    a - 1, b - 1, q
                ) + q**b * gaussian_binomial(a - 1, b, q)


# -- coproduct ---------------------------------------------------------------


def test_coproduct_frozen_p2_examples():
    y = lambda k: Monomial((0,), (k,))  # noqa: E731
    d3 = coproduct(2, 1, y(3))
    assert d3 == {
        (y(3), y(0)): 1,
        (y(2), y(1)): 1,
        (y(1), y(2)): 1,
        (y(0), y(3)): 1,
    }
    d2 = coproduct(2, 1, y(2))
    assert d2 == {(y(2), y(0)): 1, (y(0), y(2)): 1}


def test_coproduct_frozen_q4_example():
    m = Monomial((0, 0), (1, 1))
    unit = Monomial.unit(2)
    assert coproduct(2, 2, m) == {(m, unit): 1, (unit, m): 1}


def test_coproduct_koszul_sign_frozen_q9_example():
    # splitting x0 x1 y0^5 y1^5 across factors picks up the shuffle sign
    alpha = Monomial((1, 1), (5, 5))
    d = coproduct(3, 2, alpha)
    left = Monomial((0, 1), (5, 0))
    right = Monomial((1, 0), (0, 5))
    assert d[(left, right)] == 2  # -1 mod 3
    assert d[(right, left)] == 1


def test_coproduct_rejects_non_invariant():
    with pytest.raises(NotInvariant):
        coproduct(3, 1, Monomial((0,), (1,)))
    # the message names the monomial as the CLI writes it
    with pytest.raises(NotInvariant, match=r"^x0 y1\^2 is not in the invariant basis$"):
        coproduct(3, 2, Monomial((1, 0), (0, 2)))


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_coproduct_matches_naive_expansion(p, r):
    monomials = []
    for d in range(0, 9):
        monomials.extend(enumerate_invariant_basis(p, r, d))
    # keep the word expansion tractable
    monomials = [m for m in monomials if sum(m.ext) + sum(m.pows) <= 8]
    assert monomials
    for m in monomials:
        assert coproduct(p, r, m) == naive_coproduct(p, r, m)


def test_coproduct_deep_sign_case_matches_naive():
    alpha = Monomial((1, 1), (5, 5))
    assert coproduct(3, 2, alpha) == naive_coproduct(3, 2, alpha)


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (3, 2), (5, 2)])
def test_coproduct_matches_brute_force_past_the_word_limit(p, r):
    # exponents up to 80, far past the word expansion's 8 symbols
    rng = random.Random(p * 10 + r)
    picked = []
    while len(picked) < 12:
        ext = tuple(rng.randrange(2) if p != 2 else 0 for _ in range(r))
        m = Monomial(ext, tuple(rng.randrange(81) for _ in range(r)))
        if is_invariant(m, p):
            picked.append(m)
    if p != 2:  # the shuffle signs are exercised
        assert any(sum(m.ext) == r for m in picked)
    for m in picked:
        assert coproduct(p, r, m) == brute_coproduct(p, r, m)


@pytest.mark.parametrize("p", [257, 1009])
def test_coproduct_matches_brute_force_for_large_primes(p):
    # digit binomials with digits up to p - 1 and modular inverses mod p
    for m in (
        Monomial((0,), (5 * p + (p - 1 - 5),)),  # digits (p - 6, 5)
        Monomial((1,), (2 * p + (p - 2 - 2),)),  # digits (p - 4, 2)
        Monomial((0,), (p - 1,)),  # last digit solved twice: 0 and p - 1
    ):
        assert is_invariant(m, p)
        assert coproduct(p, 1, m) == brute_coproduct(p, 1, m)


# (p, r, highest degree): the GF(4), GF(8) and GF(9) bands of the classes benchmark
BENCH_BANDS = ((2, 2, 36), (2, 3, 24), (3, 2, 56))


def test_coproduct_matches_brute_force_on_the_bands_cold_and_warm():
    # cold, every slot's options are listed afresh; warm, all are read from
    # the memo, so an entry changed after it was stored shows here
    band = [
        (p, r, m)
        for p, r, top in BENCH_BANDS
        for d in range(1, top + 1)
        for m in enumerate_invariant_basis(p, r, d)
    ]
    want = [brute_coproduct(p, r, m) for p, r, m in band]
    coalg._slot_options.cache_clear()
    assert [coproduct(p, r, m) for p, r, m in band] == want
    assert coalg._slot_options.cache_info().currsize > 0
    assert [coproduct(p, r, m) for p, r, m in band] == want
    assert coalg._slot_options.cache_info().hits > coalg._slot_options.cache_info().misses


def test_slot_options_memo_is_bounded():
    maxsize = coalg._slot_options.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_coproduct_term_order():
    # exterior subsets in turn; within each, left exponents ascend slot by slot
    m = Monomial((1, 1), (13, 13))
    keys = list(coproduct(3, 2, m))
    assert len({left.ext for left, _ in keys}) == 4
    for ext in {left.ext for left, _ in keys}:
        pows = [left.pows for left, _ in keys if left.ext == ext]
        assert pows == sorted(pows) and len(set(pows)) == len(pows)


def test_iterated_coproduct_base_cases():
    m = Monomial((0,), (3,))
    assert iterated_coproduct(2, 1, m, 1) == {(m,): 1}
    two = iterated_coproduct(2, 1, m, 2)
    assert two == {k: v for k, v in coproduct(2, 1, m).items()}


def test_iterated_coproduct_y3_all_carry_free_compositions():
    # ternary splittings of y^3 over F_2: all 9 carry-free compositions
    m = Monomial((0,), (3,))
    got = iterated_coproduct(2, 1, m, 3)
    expected = {}
    for parts in itertools.product(range(4), repeat=3):
        if sum(parts) != 3:
            continue
        coeff = factorial_multinomial(parts) % 2
        if coeff:
            key = tuple(Monomial((0,), (b,)) for b in parts)
            expected[key] = coeff
    assert len(expected) == 9
    assert got == expected


def test_iterated_coproduct_left_right_nesting_agree():
    # coassociativity makes the nesting order immaterial
    p, r = 3, 1
    m = Monomial((1,), (5,))
    left = iterated_coproduct(p, r, m, 3)
    right = {}
    for (a, b), c in coproduct(p, r, m).items():
        for (b1, b2), c2 in coproduct(p, r, b).items():
            key = (a, b1, b2)
            right[key] = (right.get(key, 0) + c * c2) % p
    right = {k: v for k, v in right.items() if v}
    assert left == right


def test_every_factor_was_kept_invariant():
    for p, r in [(2, 2), (3, 2)]:
        for d in range(0, 9):
            for m in enumerate_invariant_basis(p, r, d):
                for (a, b), c in coproduct(p, r, m).items():
                    assert is_invariant(a, p) and is_invariant(b, p)
                    assert degree(a, p) + degree(b, p) == degree(m, p)
