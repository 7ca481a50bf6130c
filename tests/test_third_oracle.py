"""A third oracle from outside the package: sympy's polynomial and
matrix arithmetic over GF(p), and hypothesis-drawn cases.  Both are test
dependencies only; without them this module is skipped."""

import json
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from modchar import repfile, reps  # noqa: E402
from modchar.coalg import coproduct, iterated_coproduct  # noqa: E402
from modchar.ff import FieldCtx, MatrixFF, kernel  # noqa: E402
from modchar.mono import (  # noqa: E402
    Monomial,
    format_monomial,
    is_invariant,
    parse_monomial,
    weight,
)
from modchar.verify import random_valid_rep  # noqa: E402

# admitted fields, the largest extension order GF(251^2) included, and a
# prime field far above the extension bound
ADMITTED = [(2, 1), (5, 1), (65521, 1), (2, 2), (2, 4), (2, 8), (3, 2), (3, 5), (5, 3), (7, 2), (251, 2)]
_CONTEXTS = {}


def field(pr):
    if pr not in _CONTEXTS:
        _CONTEXTS[pr] = FieldCtx(*pr)
    return _CONTEXTS[pr]


PROPS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def field_and_elements(draw, count):
    ctx = field(draw(st.sampled_from(ADMITTED)))
    return ctx, [draw(st.integers(0, ctx.q - 1)) for _ in range(count)]


def _high_first(ctx, a):
    """a as a sympy dense polynomial over F_p, leading coefficient first."""
    coeffs = list(reversed(ctx.to_coeffs(a)))
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return coeffs


def _from_high_first(ctx, coeffs):
    digits = [int(c) % ctx.p for c in reversed(coeffs)] + [0] * (ctx.r - len(coeffs))
    return repfile.decode_entry(digits, ctx.p, ctx.r)


@PROPS
@given(field_and_elements(3))
def test_field_axioms(case):
    ctx, (a, b, c) = case
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.zero) == a and ctx.mul(a, ctx.one) == a
    assert ctx.add(a, ctx.neg(a)) == ctx.zero
    assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
    if a:
        assert ctx.mul(a, ctx.inv(a)) == ctx.one
        assert ctx.pow(a, ctx.q - 1) == ctx.one


@PROPS
@given(field_and_elements(2))
def test_sum_and_product_match_polynomials_mod_the_modulus(case):
    ctx, (a, b) = case
    p, fa, fb = ctx.p, _high_first(ctx, a), _high_first(ctx, b)
    modulus = list(reversed(ctx.modulus))
    assert ctx.add(a, b) == _from_high_first(ctx, gf_add(fa, fb, p, ZZ))
    assert ctx.mul(a, b) == _from_high_first(ctx, gf_rem(gf_mul(fa, fb, p, ZZ), modulus, p, ZZ))


@PROPS
@given(field_and_elements(1))
def test_int_coefficient_round_trip(case):
    ctx, (a,) = case
    coeffs = ctx.to_coeffs(a)
    assert len(coeffs) == ctx.r and all(0 <= c < ctx.p for c in coeffs)
    assert sum(c * ctx.p**i for i, c in enumerate(coeffs)) == a
    assert repfile.decode_entry(coeffs, ctx.p, ctx.r) == a


def test_moduli_are_irreducible_by_sympy():
    x = sympy.symbols("x")
    for p, r in ADMITTED:
        if r > 1:
            modulus = field((p, r)).modulus
            assert sympy.Poly(list(reversed(modulus)), x, modulus=p).is_irreducible


def test_rank_and_kernel_match_sympy_domain_matrix():
    rng = random.Random(2026)
    for p in (2, 3, 5, 7, 251):
        ctx, dom = FieldCtx(p, 1), sympy.GF(p)
        for _ in range(40):
            m, n = rng.randrange(1, 9), rng.randrange(1, 9)
            # low-rank products as well as uniform draws
            if rng.random() < 0.5:
                k = rng.randrange(1, min(m, n) + 1)
                left = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
                right = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
                rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]
            else:
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            mat = MatrixFF(ctx, rows)
            dm = DomainMatrix([[dom(x) for x in row] for row in rows], (m, n), dom)
            ours = kernel(mat)
            assert mat.rank() == dm.rank()
            theirs = [[int(e) % p for e in row] for row in dm.nullspace().to_list()]
            theirs = [row for row in theirs if any(row)]
            assert ours.dim == len(theirs) == n - dm.rank()
            assert all(ours.contains(v) for v in theirs)


REP_FIELDS = [(2, 1), (5, 1), (2, 2), (3, 2), (251, 2)]


@st.composite
def rep_files(draw):
    """A valid rep from a drawn seed, and a basepoint drawn apart (zero
    at times, which the file format refuses)."""
    ctx = field(draw(st.sampled_from(REP_FIELDS)))
    rep = random_valid_rep(random.Random(draw(st.integers(0, 2**32 - 1))), ctx)
    entry = st.integers(0, ctx.q - 1)
    basepoint = draw(st.none() | st.tuples(*[entry] * rep.dim))
    return rep, basepoint


@st.composite
def matrix_families(draw):
    """Up to three random dim x dim matrices: mostly not a valid rep."""
    ctx = field(draw(st.sampled_from(REP_FIELDS)))
    dim = draw(st.integers(1, 3))
    entry = st.integers(0, ctx.q - 1)
    gens = draw(st.lists(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim), max_size=3))
    return reps.Rep._of(ctx, dim, tuple(MatrixFF(ctx, g) for g in gens))


@PROPS
@given(rep_files())
def test_rep_file_round_trip(case):
    rep, basepoint = case
    obj = reps.rep_to_dict(rep, basepoint)
    entries = [e for g in obj["generators"] for row in g for e in row] + obj.get("basepoint", [])
    if rep.ctx.r == 1:
        assert all(repfile.is_int(e) for e in entries)
    else:
        assert all(isinstance(e, list) and len(e) == rep.ctx.r for e in entries)
    text = json.dumps(obj, sort_keys=True)
    if basepoint is not None and not any(basepoint):
        with pytest.raises(ValueError, match="basepoint is zero"):
            reps.rep_from_dict(json.loads(text))
        return
    back, back_point = reps.rep_from_dict(json.loads(text))
    assert back == rep and back_point == basepoint
    assert json.dumps(reps.rep_to_dict(back, back_point), sort_keys=True) == text


@PROPS
@given(matrix_families())
def test_rep_file_refused_with_the_violations_validate_reports(family):
    violations = reps.validate(family)
    obj = json.loads(json.dumps(reps.rep_to_dict(family)))
    if violations:
        with pytest.raises(reps.RepValidationError) as info:
            reps.rep_from_dict(obj)
        assert info.value.violations == violations
    else:
        assert reps.rep_from_dict(obj)[0] == family


# -- the row kernel against sympy -------------------------------------------


def _shapes(rng):
    """(m, k, n) for an m x k times k x n product: 1 x n and n x 1 factors,
    non-square ones, and twelve seeded draws with each size in 1..5."""
    return [(1, 1, 1), (1, 5, 1), (1, 3, 5), (5, 3, 1), (4, 1, 4), (2, 5, 3)] + [
        (rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(12)
    ]


def _draw(rng, ctx, m, n):
    """A random m x n matrix: all zeros, sparse or dense."""
    density = rng.choice([0.0, 0.3, 1.0])
    return [[rng.randrange(1, ctx.q) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]


def _sympy_rows(dm, p):
    return tuple(tuple(int(e) % p for e in row) for row in dm.to_list())


def test_products_match_sympy_over_prime_fields():
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 251, 65521):
        ctx, dom = field((p, 1)), sympy.GF(p)
        for m, k, n in _shapes(rng):
            a, b = _draw(rng, ctx, m, k), _draw(rng, ctx, k, n)
            ours = MatrixFF(ctx, a).mul(MatrixFF(ctx, b))
            theirs = DomainMatrix([[dom(x) for x in row] for row in a], (m, k), dom) * DomainMatrix(
                [[dom(x) for x in row] for row in b], (k, n), dom
            )
            assert ours.rows == _sympy_rows(theirs, p)
            v = [rng.randrange(p) for _ in range(k)]
            assert MatrixFF(ctx, a).matvec(v) == tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)
        empty = MatrixFF(ctx, [])
        assert empty.mul(empty).rows == () and empty.rank() == 0 and kernel(empty).dim == 0


def _mult_block(ctx, a):
    """The r x r matrix over F_p of multiplication by a on the power basis
    1, t, ..., t^(r-1): column c holds a t^c mod the modulus, from sympy's
    polynomial arithmetic, never the package's log and Zech tables."""
    p, modulus = ctx.p, list(reversed(ctx.modulus))
    cols = []
    for c in range(ctx.r):
        prod = gf_rem(gf_mul(_high_first(ctx, a), [1] + [0] * c, p, ZZ), modulus, p, ZZ)
        cols.append(([int(x) % p for x in reversed(prod)] + [0] * ctx.r)[: ctx.r])
    return list(zip(*cols))


def _blow_up(ctx, rows, ncols):
    """phi(M) over F_p: each entry replaced by its multiplication block, so
    phi(AB) = phi(A) phi(B) and rank phi(M) = r rank M."""
    dom, r = sympy.GF(ctx.p), ctx.r
    out = []
    for row in rows:
        blocks = [_mult_block(ctx, a) for a in row]
        out += [[dom(x) for block in blocks for x in block[i]] for i in range(r)]
    return DomainMatrix(out, (len(rows) * r, ncols * r), dom)


@pytest.mark.parametrize("pr", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_extension_field_mul_rank_kernel_via_blow_up(pr):
    ctx, p, r = field(pr), pr[0], pr[1]
    rng = random.Random(f"blow-up/{pr}")
    for m, k, n in _shapes(rng):
        a, b = _draw(rng, ctx, m, k), _draw(rng, ctx, k, n)
        big_a = _blow_up(ctx, a, k)
        product = MatrixFF(ctx, a).mul(MatrixFF(ctx, b))
        assert _sympy_rows(_blow_up(ctx, product.rows, n), p) == _sympy_rows(big_a * _blow_up(ctx, b, n), p)
        rank = big_a.rank()
        assert r * MatrixFF(ctx, a).rank() == rank
        ker = kernel(MatrixFF(ctx, a))
        assert r * ker.dim == r * k - rank
        for v in ker.basis:
            assert not any(map(any, _sympy_rows(big_a * _blow_up(ctx, [[x] for x in v], 1), p)))


@pytest.mark.parametrize("pr", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_pow_int_matches_repeated_mul(pr):
    ctx, p = field(pr), pr[0]
    rng = random.Random(f"pow/{pr}")
    for n in (1, 2, 4):
        for _ in range(3):
            g = MatrixFF(ctx, _draw(rng, ctx, n, n))
            power = MatrixFF.identity(ctx, n)
            for e in range(2 * p + 4):
                if e in (0, 1, p, p + 1, 2 * p + 3):
                    assert g.pow_int(e) == power
                power = power.mul(g)


# -- coproduct laws on drawn invariant monomials -----------------------------


@st.composite
def invariant_monomials(draw):
    """(p, r, m): m invariant over GF(p^r), p in {2, 3, 5}, r <= 3.  The
    first y-exponent is raised by the weight's deficit mod q - 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(1, 3))
    ext = (0,) * r if p == 2 else tuple(draw(st.lists(st.integers(0, 1), min_size=r, max_size=r)))
    pows = draw(st.lists(st.integers(0, 12), min_size=r, max_size=r))
    pows[0] += -weight(Monomial(ext, tuple(pows)), p) % (p**r - 1)
    return p, r, Monomial(ext, tuple(pows))


@PROPS
@given(invariant_monomials())
def test_coproduct_counit(case):
    p, r, m = case
    unit = Monomial.unit(r)
    delta = coproduct(p, r, m)
    assert delta[(unit, m)] == 1 and delta[(m, unit)] == 1


@PROPS
@given(invariant_monomials())
def test_coproduct_coassociative(case):
    p, r, m = case
    right_nested = {}
    for (a, b), c in coproduct(p, r, m).items():
        for (b1, b2), c2 in coproduct(p, r, b).items():
            right_nested[(a, b1, b2)] = (right_nested.get((a, b1, b2), 0) + c * c2) % p
    assert iterated_coproduct(p, r, m, 3) == {k: v for k, v in right_nested.items() if v}


@PROPS
@given(invariant_monomials())
def test_coproduct_factors_equal_validated_monomials(case):
    p, r, m = case
    for pair in coproduct(p, r, m):
        for f in pair:
            checked = Monomial(tuple(f.ext), tuple(f.pows))
            assert f == checked and hash(f) == hash(checked)
            assert type(f.ext) is tuple and type(f.pows) is tuple
            assert is_invariant(f, p, r)


@PROPS
@given(invariant_monomials())
def test_monomial_text_round_trip(case):
    _, r, m = case
    assert parse_monomial(format_monomial(m), r) == m
