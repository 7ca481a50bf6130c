"""Monomial model, weights, the invariant basis, and sparse classes."""

import itertools
import sys
import time

import pytest

from modchar.mono import (
    ContextMismatch,
    Monomial,
    ParseError,
    TensorClass,
    basis_walk_size,
    degree,
    enumerate_invariant_basis,
    format_monomial,
    is_invariant,
    parse_monomial,
    sort_key,
    weight,
)


def test_degree_frozen_examples():
    assert degree(Monomial((1,), (2,)), 3) == 5  # x y^2 at p = 3
    assert degree(Monomial((0,), (3,)), 2) == 3  # y^3 at p = 2
    assert degree(Monomial((1, 1), (1, 1)), 5) == 6


def test_weight_frozen_examples():
    assert weight(Monomial((0, 0), (1, 1)), 2) == 3  # y0 y1 at q = 4
    assert weight(Monomial((1,), (2,)), 3) == 3
    assert weight(Monomial((0, 0), (0, 2)), 3) == 6


def test_invariance_examples():
    assert is_invariant(Monomial((0, 0), (1, 1)), 2)  # weight 3, q - 1 = 3
    assert not is_invariant(Monomial((0, 0), (1, 0)), 2)  # weight 1
    # q = 2: everything is invariant
    for b in range(6):
        assert is_invariant(Monomial((0,), (b,)), 2)


def test_invariant_basis_frozen_small_cases():
    assert enumerate_invariant_basis(3, 1, 3) == [Monomial((1,), (1,))]
    assert enumerate_invariant_basis(3, 1, 4) == [Monomial((0,), (2,))]
    assert enumerate_invariant_basis(3, 1, 1) == []
    assert enumerate_invariant_basis(3, 1, 0) == [Monomial.unit(1)]
    for k in range(8):
        assert enumerate_invariant_basis(2, 1, k) == [Monomial((0,), (k,))]
    # q = 4, degree 2: y0 y1 (weight 3) qualifies, y0^2 and y1^2 do not
    assert Monomial((0, 0), (1, 1)) in enumerate_invariant_basis(2, 2, 2)
    assert Monomial((0, 0), (2, 0)) not in enumerate_invariant_basis(2, 2, 2)


def test_invariant_basis_membership_exhaustive_recheck():
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        seen = set()
        for d in range(0, 21):
            listed = enumerate_invariant_basis(p, r, d)
            assert len(set(listed)) == len(listed)
            keys = [sort_key(m, p) for m in listed]
            assert keys == sorted(keys)
            for m in listed:
                assert degree(m, p) == d
                assert is_invariant(m, p)
                assert m not in seen
                seen.add(m)


def test_invariant_basis_complete_against_bruteforce():
    # independent enumeration over raw exponent tuples
    p, r = 3, 2
    for d in range(0, 11):
        brute = set()
        for ext in itertools.product((0, 1), repeat=r):
            for pows in itertools.product(range(d + 1), repeat=r):
                m = Monomial(ext, pows)
                if degree(m, p) == d and is_invariant(m, p):
                    brute.add(m)
        assert brute == set(enumerate_invariant_basis(p, r, d))


def _compositions(total, parts):
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


def _basis_by_filtering(p, r, d):
    """Brute force: every composition of degree d as a Monomial, then the
    invariant ones, in canonical order."""
    found = []
    if p == 2:
        for pows in _compositions(d, r):
            m = Monomial((0,) * r, pows)
            if is_invariant(m, p):
                found.append(m)
    else:
        for ext_total in range(min(d, r) + 1):
            rem = d - ext_total
            if rem % 2:
                continue
            for ext in _compositions(ext_total, r):
                if any(a > 1 for a in ext):
                    continue
                for pows in _compositions(rem // 2, r):
                    m = Monomial(ext, pows)
                    if is_invariant(m, p):
                        found.append(m)
    found.sort(key=lambda m: sort_key(m, p))
    return found


@pytest.mark.parametrize(
    "p, r, max_degree",
    [(2, 1, 30), (2, 2, 30), (2, 3, 30), (2, 4, 30), (3, 1, 20), (3, 2, 20),
     (3, 3, 16), (5, 2, 20), (7, 2, 30), (2, 12, 6), (3, 6, 6)],
)
def test_invariant_basis_walk_equals_filtering(p, r, max_degree):
    for d in range(max_degree + 1):
        assert enumerate_invariant_basis(p, r, d) == _basis_by_filtering(p, r, d), d


def test_invariant_basis_at_a_rank_past_the_recursion_limit():
    r = sys.getrecursionlimit() + 10
    for p in (2, 3):
        assert enumerate_invariant_basis(p, r, 0) == [Monomial.unit(r)]


def test_invariant_basis_walk_costs_the_same_per_vector_at_any_rank():
    # r = 900 to degree 2 tests 406,351 vectors (basis_walk_size); a walk
    # that rebuilt the exponents or walked each zero tail slot by slot
    # would cost r times more per vector.  Only the unit is invariant: no
    # 2^i or 2^i + 2^j with i, j < 900 is a multiple of 2^900 - 1
    start = time.perf_counter()
    found = [enumerate_invariant_basis(2, 900, d) for d in range(3)]
    assert time.perf_counter() - start < 5
    assert found == [[Monomial.unit(900)], [], []]


def test_basis_walk_size_counts_the_tested_vectors():
    for p, r in [(2, 1), (2, 3), (3, 1), (3, 2), (3, 4), (5, 3)]:
        for max_degree in range(13):
            tested = 0
            for d in range(max_degree + 1):
                if p == 2:
                    tested += sum(1 for _ in _compositions(d, r))
                    continue
                for ext in itertools.product((0, 1), repeat=r):
                    rem = d - sum(ext)
                    if rem >= 0 and rem % 2 == 0:
                        tested += sum(1 for _ in _compositions(rem // 2, r))
            assert basis_walk_size(p, r, max_degree) == tested, (p, r, max_degree)


def test_weight_additive_under_multiplication():
    p, r = 3, 2
    monos = [
        Monomial(ext, pows)
        for ext in itertools.product((0, 1), repeat=r)
        for pows in itertools.product(range(3), repeat=r)
    ]
    for m1 in monos:
        for m2 in monos:
            if any(a and b for a, b in zip(m1.ext, m2.ext)):
                continue  # a squared exterior generator: the product vanishes
            prod = Monomial(
                tuple(a + b for a, b in zip(m1.ext, m2.ext)),
                tuple(a + b for a, b in zip(m1.pows, m2.pows)),
            )
            assert weight(prod, p) == weight(m1, p) + weight(m2, p)
            assert (weight(prod, p) - weight(m1, p) - weight(m2, p)) % (p**r - 1) == 0


def test_parse_and_format_round_trip():
    cases = [
        ("1", Monomial.unit(1)),
        ("y^7", Monomial((0,), (7,))),
        ("x y^4", Monomial((1,), (4,))),
        ("x0 x1 y0^3 y1^2", Monomial((1, 1), (3, 2))),
        ("y0 y1", Monomial((0, 0), (1, 1))),
    ]
    for text, expected in cases:
        r = expected.r
        parsed = parse_monomial(text, r)
        assert parsed == expected
        assert parse_monomial(format_monomial(parsed), r) == parsed


@pytest.mark.parametrize("text", ["", " ", "\t\n"])
@pytest.mark.parametrize("r", [1, 2])
def test_parse_rejects_empty_or_blank_text(text, r):
    with pytest.raises(ParseError, match="empty monomial"):
        parse_monomial(text, r)


@pytest.mark.parametrize("text", ["1", " 1 "])
def test_parse_literal_one_is_the_unit(text):
    assert parse_monomial(text, 2) == Monomial.unit(2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position 1"):
        parse_monomial("y^2 z^3", 1)
    with pytest.raises(ParseError, match="needs an index"):
        parse_monomial("y^2", 2)
    with pytest.raises(ParseError, match="out of range"):
        parse_monomial("y5^2", 2)
    with pytest.raises(ParseError):
        parse_monomial("x^2", 1)


# Unicode decimal digits that int() would read: Arabic-Indic 3, fullwidth 3
# and Devanagari 1, as an exponent and as an index
@pytest.mark.parametrize("text, r", [
    ("y^\u0663", 1), ("y^\uff13", 1), ("y^1\u0663", 1), ("y\u0967^2", 2), ("x\u0967 y0^3", 2),
])
def test_parse_rejects_non_ascii_digits(text, r):
    with pytest.raises(ParseError, match="bad token"):
        parse_monomial(text, r)


def test_monomial_rejects_invalid_exponents():
    with pytest.raises(ValueError, match="equal length"):
        Monomial((0, 0), (1,))
    with pytest.raises(ValueError, match="0 or 1"):
        Monomial((2,), (1,))
    with pytest.raises(ValueError, match=">= 0"):
        Monomial((0,), (-1,))
    # the unchecked constructor builds an equal monomial with an equal hash
    m = Monomial._of((1, 0), (2, 5))
    assert m == Monomial((1, 0), (2, 5)) and hash(m) == hash(Monomial((1, 0), (2, 5)))


def test_json_round_trip():
    m = Monomial((1, 0), (2, 5))
    assert m.to_json() == {"A": [1, 0], "B": [2, 5]}


def test_tensor_class_ops():
    p, r = 2, 1
    y1 = Monomial((0,), (1,))
    y2 = Monomial((0,), (2,))
    a = TensorClass(p, r, 1, {(y1,): 1})
    b = TensorClass(p, r, 1, {(y2,): 1})
    ab = a.tensor(b)
    assert ab.n == 2 and ab.coefficient((y1, y2)) == 1
    assert ab.add(ab).is_zero()
    assert ab.scale(1) == ab
    assert ab.scale(2).is_zero()
    assert TensorClass(3, r, 1, {(y2,): 2}).scale(2) == TensorClass(3, r, 1, {(y2,): 1})
    assert ab.sub(ab).is_zero() and ab.neg() == ab
    assert TensorClass(3, r, 1, {(y2,): 2}).neg() == TensorClass(3, r, 1, {(y2,): 1})
    for other in (ab, TensorClass(3, r, 1, {}), TensorClass(p, 2, 1, {})):
        with pytest.raises(ContextMismatch):
            a.add(other)
    assert issubclass(ContextMismatch, ValueError)
    # invalid monomials are rejected on construction
    with pytest.raises(ContextMismatch):
        TensorClass(p, r, 2, {(y1,): 1})
    with pytest.raises(ContextMismatch):
        TensorClass(p, r, 1, {(Monomial((0, 0), (1, 1)),): 1})


def test_canonical_order_is_total_and_deterministic():
    p, r = 3, 2
    monos = enumerate_invariant_basis(p, r, 8)
    keys = [sort_key(m, p) for m in monos]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_p2_rejects_exterior_in_classes():
    with pytest.raises(ValueError):
        TensorClass(2, 1, 1, {(Monomial((1,), (0,)),): 1})
