"""Field arithmetic and exact linear algebra."""

import random

import pytest

from modchar import ff, repfile, reps
from modchar.ff import (
    FieldCtx,
    FieldError,
    MatrixFF,
    Subspace,
    find_irreducible,
    kernel,
    preimage,
)

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 8)]


def test_find_irreducible_frozen_values():
    assert find_irreducible(2, 1) == (0, 1)
    # only monic irreducible quadratic over F_2, confirmed by root check
    assert find_irreducible(2, 2) == (1, 1, 1)
    # t^2 + 1 has no root mod 3 and earlier candidates all factor
    assert find_irreducible(3, 2) == (1, 0, 1)


def test_find_irreducible_is_lex_smallest_by_exhaustion():
    for p, r in [(2, 3), (3, 2), (5, 2)]:
        best = find_irreducible(p, r)
        import itertools

        for tail in itertools.product(range(p), repeat=r):
            cand = tail + (1,)
            if cand == best:
                break
            assert not ff._is_irreducible(cand, p)


def test_find_irreducible_rejects_bad_input():
    with pytest.raises(FieldError):
        find_irreducible(4, 2)
    with pytest.raises(FieldError):
        find_irreducible(2, 0)
    with pytest.raises(FieldError):
        find_irreducible(2, 9)


def test_field_checks_a_modulus_once(monkeypatch):
    # FieldCtx(p, r) trial-divides only the candidates find_irreducible
    # tries, and checks the field once; a given modulus is still checked
    calls = {"irreducible": 0, "field": 0}
    is_irreducible, check_field = ff._is_irreducible, ff._check_field

    def counted_irreducible(poly, p):
        calls["irreducible"] += 1
        return is_irreducible(poly, p)

    def counted_field(p, r):
        calls["field"] += 1
        return check_field(p, r)

    monkeypatch.setattr(ff, "_is_irreducible", counted_irreducible)
    monkeypatch.setattr(ff, "_check_field", counted_field)
    find_irreducible(3, 2)
    searched = dict(calls)
    calls.update(irreducible=0, field=0)
    FieldCtx(3, 2)
    assert calls == searched and calls["field"] == 1
    calls.update(irreducible=0, field=0)
    FieldCtx(3, 2, (1, 0, 1))
    assert calls == {"irreducible": 1, "field": 1}
    with pytest.raises(FieldError, match="reducible"):
        FieldCtx(3, 2, (2, 0, 1))  # t^2 + 2 = (t + 1)(t + 2) over F_3
    with pytest.raises(FieldError, match="monic"):
        FieldCtx(3, 2, (1, 0, 2))


def test_irreducibility_check_against_roots():
    # degree 2: irreducible iff no root; cross-check trial division
    for p in (2, 3, 5):
        for c0 in range(p):
            for c1 in range(p):
                poly = (c0, c1, 1)
                has_root = any((x * x + c1 * x + c0) % p == 0 for x in range(p))
                assert ff._is_irreducible(poly, p) == (not has_root)


def test_f4_multiplication_table():
    ctx = FieldCtx(2, 2)
    t = ctx.gen()
    t1 = ctx.add(t, ctx.one)
    assert ctx.mul(t, t1) == ctx.one  # t^2 + t = 1 mod t^2+t+1
    assert ctx.mul(t, t) == t1
    assert ctx.inv(t) == t1


def test_f3_inverse():
    ctx = FieldCtx(3, 1)
    assert ctx.inv(2) == 2  # 2*2 = 4 = 1 mod 3


def test_identity_and_zero_division():
    for p, r in FIELDS:
        ctx = FieldCtx(p, r)
        for a in ctx.elements():
            assert ctx.mul(ctx.one, a) == a
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ctx.zero)
        with pytest.raises(ZeroDivisionError):
            ctx.pow(ctx.zero, -1)


def test_field_axioms_random_triples():
    rng = random.Random(1)
    for p, r in FIELDS:
        ctx = FieldCtx(p, r)
        elems = list(ctx.elements())
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_frobenius_orbit_closes_exhaustive():
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            ctx = FieldCtx(p, r)
            for a in ctx.elements():
                x = a
                for _ in range(r):
                    x = ctx.pow(x, p)
                assert x == a


def test_pow_matches_repeated_multiplication():
    ctx = FieldCtx(3, 2)
    for a in ctx.elements():
        acc = ctx.one
        for e in range(1, 6):
            acc = ctx.mul(acc, a)
            assert ctx.pow(a, e) == acc
    a = ctx.gen()
    assert ctx.pow(a, -1) == ctx.inv(a)


def test_kernel_frozen_examples():
    ctx = FieldCtx(2, 1)
    zero = MatrixFF(ctx, [[0, 0], [0, 0]])
    assert kernel(zero) == Subspace.full(ctx, 2)
    m = MatrixFF(ctx, [[1, 1], [1, 1]])
    k = kernel(m)
    assert k.dim == 1 and k.basis == ((1, 1),)
    ident = MatrixFF.identity(ctx, 3)
    assert kernel(ident) == Subspace.zero_space(ctx, 3)


def test_sub_checks_shapes():
    ctx = FieldCtx(3, 1)
    a = MatrixFF.identity(ctx, 2)
    assert a.sub(a) == MatrixFF(ctx, [[0, 0], [0, 0]])
    with pytest.raises(ff.DimensionError, match="shape"):
        a.sub(MatrixFF.identity(ctx, 3))
    with pytest.raises(ff.DimensionError, match="shape"):
        a.sub(MatrixFF(ctx, [[1, 0, 0], [0, 1, 0]]))


def test_preimage_examples():
    ctx = FieldCtx(3, 1)
    m = MatrixFF(ctx, [[1, 0], [0, 0]])
    line = Subspace.from_vectors(ctx, 2, [[1, 0]])
    assert preimage(m, line) == Subspace.full(ctx, 2)
    assert preimage(m, Subspace.zero_space(ctx, 2)) == kernel(m)
    assert preimage(m, Subspace.full(ctx, 2)) == Subspace.full(ctx, 2)
    with pytest.raises(ff.DimensionError):
        preimage(m, Subspace.full(ctx, 3))


def test_intersect_examples():
    ctx = FieldCtx(2, 1)
    e1 = Subspace.from_vectors(ctx, 2, [[1, 0]])
    e2 = Subspace.from_vectors(ctx, 2, [[0, 1]])
    assert ff.intersect(e1, e2) == Subspace.zero_space(ctx, 2)
    assert ff.intersect(e1, e1) == e1


def _random_matrix(rng, ctx, m, n):
    elems = list(ctx.elements())
    return MatrixFF(ctx, [[rng.choice(elems) for _ in range(n)] for _ in range(m)])


def test_rank_nullity_random():
    rng = random.Random(7)
    for p, r in FIELDS:
        ctx = FieldCtx(p, r)
        for _ in range(500):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            mat = _random_matrix(rng, ctx, m, n)
            assert mat.rank() + kernel(mat).dim == n


def test_kernel_vectors_annihilate_random():
    rng = random.Random(11)
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        ctx = FieldCtx(p, r)
        for _ in range(100):
            mat = _random_matrix(rng, ctx, rng.randrange(1, 5), rng.randrange(1, 5))
            k = kernel(mat)
            zero = (ctx.zero,) * mat.nrows
            for v in k.basis:
                assert mat.matvec(v) == zero
            # canonical form is a fixed point of re-canonicalization
            assert Subspace.from_vectors(ctx, k.ambient_dim, k.basis) == k


def test_canonical_form_is_idempotent_random():
    rng = random.Random(13)
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = FieldCtx(p, r)
        elems = list(ctx.elements())
        for _ in range(200):
            n = rng.randrange(1, 6)
            vecs = [
                [rng.choice(elems) for _ in range(n)]
                for _ in range(rng.randrange(0, 4))
            ]
            s = Subspace.from_vectors(ctx, n, vecs)
            again = Subspace.from_vectors(ctx, n, s.basis)
            assert s == again
            for v in vecs:
                assert s.contains(v)


def test_preimage_contains_kernel_random():
    rng = random.Random(17)
    ctx = FieldCtx(3, 1)
    elems = list(ctx.elements())
    for _ in range(100):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = _random_matrix(rng, ctx, m, n)
        vecs = [
            [rng.choice(elems) for _ in range(m)] for _ in range(rng.randrange(0, 3))
        ]
        s = Subspace.from_vectors(ctx, m, vecs)
        pre = preimage(mat, s)
        assert all(pre.contains(v) for v in kernel(mat).basis)
        for v in pre.basis:
            assert s.contains(mat.matvec(v))


def test_matrix_inverse_and_singular():
    ctx = FieldCtx(5, 1)
    m = MatrixFF(ctx, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m.mul(inv) == MatrixFF.identity(ctx, 2)
    singular = MatrixFF(ctx, [[1, 2], [2, 4]])
    with pytest.raises(FieldError):
        singular.inverse()


# -- the packed GF(2) rows against the int-list kernel on tuple rows ----------

F2 = FieldCtx(2, 1)
# square sides from 0 to 129, across the 64- and 128-bit word boundaries
WORD_DIMS = (0, 1, 2, 3, 7, 63, 64, 65, 129)


def _list_mul(a, b, n):
    return ff._product(F2, a, [ff._sparse(F2, y) for y in b], n)


def _list_rref(rows, n):
    return tuple(map(tuple, ff._rref(F2, [list(r) for r in rows], n)[1]))


def _list_inverse(rows):
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivots, red = ff._rref(F2, aug, 2 * n)
    return tuple(tuple(row[n:]) for row in red) if pivots == list(range(n)) else None


def _xor(u, v):
    return tuple((x + y) % 2 for x, y in zip(u, v))


def _list_reduce(basis, v):
    for b in basis:
        if v[b.index(1)]:
            v = _xor(v, b)
    return tuple(v)


def _list_membership(basis, n):
    cols = [tuple(int(u == c) for u in range(n)) for c in range(n)]
    for b in basis:
        cols[b.index(1)] = _xor(cols[b.index(1)], b)
    return tuple(zip(*cols))


def _gf2_inputs(rng, n):
    """Zero, identity, permutation, dense, singular and rank-deficient
    n x n rows, as tuples."""
    perm = rng.sample(range(n), n)
    dense = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(n)]
    singular = dense[:-1] + [_xor(dense[0], dense[1]) if n > 1 else (0,) * n] if n else []
    thin = [tuple(rng.randrange(2) for _ in range(n // 3)) for _ in range(n)]
    zero = ((0,) * n,) * n
    return {
        "zero": zero,
        "identity": tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        "permutation": tuple(tuple(int(j == perm[i]) for j in range(n)) for i in range(n)),
        "dense": tuple(dense),
        "singular": tuple(singular),
        "low rank": _list_mul(thin, tuple(zip(*thin)), n) if n > 2 else zero,
    }


def _check_packed_against_lists(rng, n):
    inputs = _gf2_inputs(rng, n)
    other = inputs["dense"]
    b = MatrixFF(F2, other)
    v = tuple(rng.randrange(2) for _ in range(n))
    for rows in inputs.values():
        a = MatrixFF(F2, rows)
        tall = rows + other  # stacked: 2n rows of rank at most n
        assert a.rows == rows and a.transpose().rows == tuple(zip(*rows))
        assert a.mul(b).rows == _list_mul(rows, other, n)
        assert b.mul(a).rows == _list_mul(other, rows, n)
        assert a.matvec(v) == _list_mul((v,), tuple(zip(*rows)), n)[0]
        assert a.sub(b).rows == tuple(map(_xor, rows, other))
        power = inputs["identity"]
        assert a.pow_int(0).rows == power
        for e in range(1, 4):
            power = _list_mul(power, rows, n)
            assert a.pow_int(e).rows == power
        for m in (rows, tall):
            assert MatrixFF(F2, m).rank() == len(ff._echelon(F2, [list(r) for r in m], n))
            assert kernel(MatrixFF(F2, m)).basis == ff._null_basis(F2, m, n)
        inverse = _list_inverse(rows)
        if inverse is None:
            with pytest.raises(FieldError, match="singular"):
                a.inverse()
        else:
            assert a.inverse().rows == inverse
        s = Subspace.from_vectors(F2, n, tall)
        assert s.basis == _list_rref(tall, n)
        assert s.reduce(v) == _list_reduce(s.basis, v) and s.contains(v) == (not any(_list_reduce(s.basis, v)))
        assert s.membership_matrix().rows == _list_membership(s.basis, n)
        t, u = Subspace.from_vectors(F2, n, rows), Subspace.from_vectors(F2, n, other)
        assert t.sum(u).basis == _list_rref(t.basis + u.basis, n)
        # a packed result equals, and hashes like, the matrix of its tuple rows
        for result in (a.mul(b), a.sub(b), a.transpose(), a.pow_int(3)):
            same = MatrixFF(F2, result.rows)
            assert result == same and hash(result) == hash(same)
        assert (a == b) == (rows == other) and (a.mul(b) == b.mul(a)) == (a.mul(b).rows == b.mul(a).rows)


def test_packed_gf2_matches_the_list_kernel():
    rng = random.Random(29)
    for n in WORD_DIMS:
        _check_packed_against_lists(rng, n)
    for m, k, n in ((3, 64, 130), (130, 65, 1), (64, 129, 63), (1, 1, 128)):
        a = [tuple(rng.randrange(2) for _ in range(k)) for _ in range(m)]
        b = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        assert MatrixFF(F2, a).mul(MatrixFF(F2, b)).rows == _list_mul(a, b, n)
        assert MatrixFF(F2, a).transpose().rows == tuple(zip(*a))
    assert MatrixFF(F2, [[0, 0, 0]]) != MatrixFF(F2, [[0, 0]])
    assert MatrixFF.identity(F2, 0) == MatrixFF(F2, []) and MatrixFF(F2, [[]]).ncols == 0


def test_a_flipped_product_bit_fails_the_differential_check(monkeypatch):
    product = ff._xor_product

    def flipped(left, right):
        out = list(product(left, right))
        if out and any(right):
            out[0] ^= 1
        return tuple(out)

    monkeypatch.setattr(ff, "_xor_product", flipped)
    with pytest.raises(AssertionError):
        _check_packed_against_lists(random.Random(29), 5)


def test_powers_square_from_the_first_factor(monkeypatch):
    # g^e squares from the top bit down without the identity: g^2 is one
    # product, g^3 two; Rep.element starts from its first factor
    ctx = FieldCtx(5, 1)
    g = MatrixFF(ctx, [[1, 1], [0, 1]])
    calls = []
    mul = MatrixFF.mul
    monkeypatch.setattr(MatrixFF, "mul", lambda self, other: calls.append(1) or mul(self, other))
    for e, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (13, 5)):
        calls.clear()
        assert g.pow_int(e).rows == ((1, e % 5), (0, 1)) and len(calls) == products
    rep = reps.Rep(ctx, 2, (g, g))
    for exponents, products in (((0, 0), 0), ((1, 0), 0), ((0, 2), 1), ((1, 1), 1), ((2, 3), 4)):
        calls.clear()
        assert rep.element(exponents).rows == ((1, sum(exponents) % 5), (0, 1))
        assert len(calls) == products
    with pytest.raises(ValueError):
        g.pow_int(-1)


def test_context_equality_and_mismatch():
    assert FieldCtx(2, 2) == FieldCtx(2, 2)
    assert FieldCtx(2, 1) != FieldCtx(3, 1)
    a = MatrixFF.identity(FieldCtx(2, 1), 2)
    b = MatrixFF.identity(FieldCtx(3, 1), 2)
    with pytest.raises(ff.DimensionError):
        a.mul(b)


def test_modulus_validation():
    with pytest.raises(FieldError):
        FieldCtx(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(FieldError):
        FieldCtx(2, 1, (1, 1))  # r = 1 must use the plain-residue convention
    with pytest.raises(FieldError, match="outside supported range"):
        FieldCtx(2, 9, (1, 1) + (0,) * 7 + (1,))  # the r cap holds with a modulus too
    ctx = FieldCtx(3, 2, (2, 1, 1))  # t^2 + t + 2, another irreducible
    t = ctx.gen()
    assert ctx.mul(t, t) == repfile.decode_entry([1, 2], 3, 2) == 7  # t^2 = 2t + 1
    assert ctx.mul(t, ctx.inv(t)) == ctx.one


def test_elements_are_ints_with_coefficient_digits():
    ctx = FieldCtx(3, 2)
    assert ctx.gen() == 3 and ctx.to_coeffs(ctx.gen()) == [0, 1]
    assert list(ctx.elements()) == list(range(9))
    for a in ctx.elements():
        assert repfile.decode_entry(ctx.to_coeffs(a), 3, 2) == a
    assert repfile.decode_entry([7], 5, 1) == 2 == FieldCtx(5, 1).scalar(7)
    with pytest.raises(ValueError, match="element needs 2 coefficients, got 1"):
        repfile.decode_entry([1], 3, 2)


def test_extension_fields_are_bounded():
    assert ff.MAX_EXTENSION_ORDER == 2**16
    with pytest.raises(FieldError, match="MAX_EXTENSION_ORDER"):
        FieldCtx(257, 2)
    with pytest.raises(FieldError, match="MAX_EXTENSION_ORDER"):
        find_irreducible(65521, 2)
    with pytest.raises(FieldError, match="MAX_EXTENSION_ORDER"):
        FieldCtx(65521, 2, (3, 0, 1))  # checked before the modulus is tested
    assert FieldCtx(251, 2).q == 63001  # the largest admitted extension field
    assert FieldCtx(65521, 1).q == 65521  # the prime field has no table or bound


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 2**61 - 1, 2**64 - 59}  # the largest 64-bit prime
    for n in primes:
        assert ff.is_prime(n)
    for n in (0, 1, 4, 9, 91, 561, 2**61 - 2, 2**64 - 1):
        assert not ff.is_prime(n)
    # 399165290221 * 798330580441 passes all twelve Miller-Rabin bases
    for n in (2**64, 318665857834031151167461):
        with pytest.raises(ValueError, match=r"p < 2\^64"):
            ff.is_prime(n)
