"""Representations: constructions, socle filtration, classification,
conjugation onto the basic model, tensor compatibility, serialization."""

import hashlib
import json
import random
import weakref

import pytest

from modchar import dickson, ff, reps
from modchar.ff import FieldCtx, MatrixFF, Subspace
from modchar.reps import (
    PointedRep,
    ReductionError,
    Rep,
    RepValidationError,
    basic_rep,
    big_rep,
    chi_of_rep,
    classify,
    direct_sum,
    dual_rep,
    iso_to_basic,
    pullback,
    quotient,
    regular_rep,
    rep_from_dict,
    rep_to_dict,
    restrict,
    socle_filtration,
    socle_tensor_check,
    sym_power_rep,
    tensor_rep,
    validate,
    wedge_sum,
)


def ints(ctx, rows):
    return MatrixFF.from_ints(ctx, rows)


def test_validate_catches_violations():
    # the public constructor refuses a family that breaks the contract,
    # with exactly the violations validate reports for it (validate reads
    # the family through the unchecked Rep._of)
    ctx = FieldCtx(3, 1)
    swap = ints(ctx, [[0, 1], [1, 0]])  # order 2, not 3
    a = ints(ctx, [[1, 1], [0, 1]])
    b = ints(ctx, [[1, 0], [1, 1]])
    singular = ints(ctx, [[1, 1], [1, 1]])
    for gens, expected in [
        ((swap,), ["generator 0 does not have order dividing 3"]),
        ((a, b), ["generators 0 and 1 do not commute"]),
        ((singular,), ["generator 0 is singular"]),
    ]:
        assert validate(Rep._of(ctx, 2, gens)) == expected
        with pytest.raises(RepValidationError) as info:
            Rep(ctx, 2, gens)
        assert info.value.violations == expected
    assert validate(basic_rep(3, 1, 2).rep) == []
    assert Rep(ctx, 2, (a, a.mul(a))).rank == 2


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_library_constructions_are_valid(p, r):
    # the constructions build through Rep._of, which skips the contract
    # check; every one of them must still pass it
    basic1, basic2 = basic_rep(p, r, 1), basic_rep(p, r, 2)
    xi = sym_power_rep(p, r)
    big = big_rep(p, r, 2)
    stages = socle_filtration(big)
    exponents = [[(i + 2 * j + 1) % p for j in range(3)] for i in range(basic2.rep.rank)]
    built = [
        basic1.rep,
        basic2.rep,
        xi,
        big,
        tensor_rep(basic1.rep, xi),
        direct_sum(basic2.rep, xi),
        dual_rep(big),
        pullback(basic2.rep, exponents),
        *(restrict(big, stage) for stage in stages),
        quotient(big, stages[0]),
        wedge_sum(basic1, basic2).rep,
    ]
    if r == 1:
        built.append(regular_rep(p, 2))
    for rep in built:
        assert validate(rep) == []


def test_analysis_of_a_parsed_rep_validates_nothing_more(monkeypatch):
    calls = []
    original = reps.validate
    monkeypatch.setattr(reps, "validate", lambda rep: calls.append(rep) or original(rep))
    rep, _ = rep_from_dict(json.loads(json.dumps(rep_to_dict(regular_rep(2, 3)))))
    assert len(calls) == 1
    assert classify(rep).verdict == "reduced"
    assert chi_of_rep(rep, 3).is_zero() and not chi_of_rep(rep, 7).is_zero()
    iso_to_basic(restrict(rep, socle_filtration(rep)[1]))
    assert len(calls) == 1


def test_basic_rep_frozen():
    pr = basic_rep(2, 1, 1)
    assert pr.rep.generators[0] == ints(pr.rep.ctx, [[1, 1], [0, 1]])
    assert pr.basepoint == (1, 0)
    pr2 = basic_rep(3, 1, 2)
    assert pr2.rep.rank == 2 and pr2.rep.dim == 3
    for g in pr2.rep.generators:
        ones = [
            (i, j)
            for i, row in enumerate(g.rows)
            for j, e in enumerate(row)
            if e and i != j
        ]
        assert len(ones) == 1 and ones[0][0] == 0
    # q = 4: r n generators
    pr4 = basic_rep(2, 2, 2)
    assert pr4.rep.rank == 4 and pr4.rep.dim == 3


def test_fixed_space_examples():
    pr = basic_rep(3, 1, 2)
    fs = socle_filtration(pr.rep)[0]
    assert fs.dim == 1 and fs.contains(pr.basepoint)
    two = direct_sum(pr.rep, pr.rep)
    assert socle_filtration(two)[0].dim == 2
    ctx = pr.rep.ctx
    trivial = Rep(ctx, 2, (MatrixFF.identity(ctx, 2), MatrixFF.identity(ctx, 2)))
    assert socle_filtration(trivial)[0] == Subspace.full(ctx, 2)


def test_sym_power_frozen_f3():
    xi = sym_power_rep(3, 1)
    assert xi.generators[0] == ints(xi.ctx, [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
    stages = socle_filtration(xi)
    assert [s.dim for s in stages] == [1, 2, 3]
    # stages are spanned by leading basis vectors
    assert stages[0].basis == ((1, 0, 0),)


def test_sym_power_p2_is_standard():
    xi = sym_power_rep(2, 1)
    assert xi.generators[0] == ints(xi.ctx, [[1, 1], [0, 1]])


def test_socle_filtration_basic_and_trivial():
    pr = basic_rep(5, 1, 3)
    stages = socle_filtration(pr.rep)
    assert [s.dim for s in stages] == [1, 4]
    ctx = pr.rep.ctx
    trivial = Rep(ctx, 2, (MatrixFF.identity(ctx, 2),))
    assert [s.dim for s in socle_filtration(trivial)] == [2]


def test_socle_filtration_edge_ranks_and_dims():
    # no generators: the empty stack has kernel the whole space
    rank0 = Rep(FieldCtx(2, 1), 2, ())
    assert [s.dim for s in socle_filtration(rank0)] == [2]
    assert classify(rank0).verdict == "zero"
    # a dim-0 rep has exactly one stage, the zero space
    xi = sym_power_rep(3, 1)
    empty = quotient(xi, Subspace.full(xi.ctx, 3))
    assert empty.dim == 0 and empty.rank == 1
    assert [s.dim for s in socle_filtration(empty)] == [0]


def _count_kernels(monkeypatch):
    """Record the column count of every ff.kernel call."""
    calls = []
    kernel = ff.kernel

    def counted(mat):
        calls.append(mat.ncols)
        return kernel(mat)

    monkeypatch.setattr(ff, "kernel", counted)
    return calls


def test_one_rep_computes_each_socle_stage_and_its_reduction_once(monkeypatch):
    calls = _count_kernels(monkeypatch)
    rep = wedge_sum(basic_rep(2, 1, 1), basic_rep(2, 1, 2)).rep
    assert [s.dim for s in socle_filtration(rep)] == [1, 4]
    red = classify(rep)
    assert (red.verdict, red.quotient_rank) == ("reduced", 3)
    assert [chi_of_rep(rep, k).is_zero() for k in (1, 3, 7)] == [True, True, False]
    iso_to_basic(rep)
    assert socle_filtration(rep) == socle_filtration(rep)
    # one kernel per stage (dim 4 columns), one for the trivial subgroup
    # (one column per generator)
    assert calls == [4, 4, 3]


def test_classify_alone_builds_two_stages(monkeypatch):
    calls = _count_kernels(monkeypatch)
    rep = regular_rep(2, 4)
    assert classify(rep).quotient_rank == 4
    assert calls == [16, 16, 4]
    # the full filtration continues from J_1
    assert [s.dim for s in socle_filtration(rep)] == [1, 5, 11, 15, 16]
    assert calls == [16, 16, 4, 16, 16, 16]


def test_socle_memo_is_not_part_of_the_rep():
    filled = regular_rep(2, 3)
    socle_filtration(filled)
    classify(filled)
    fresh = regular_rep(2, 3)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert classify(fresh) == classify(filled)
    ref = weakref.ref(filled)
    del filled
    assert ref() is None  # nothing the memo holds keeps the rep alive


def test_socle_stall_is_raised_on_every_call(monkeypatch):
    # order 2 over GF(3): not unipotent, so J_1 = J_0 and the walk stalls
    ctx = FieldCtx(3, 1)
    rep = Rep._of(ctx, 2, (ints(ctx, [[0, 1], [1, 0]]),))
    calls = _count_kernels(monkeypatch)
    for _ in range(2):
        with pytest.raises(AssertionError, match="stalled"):
            socle_filtration(rep)
    assert calls == [2, 2, 2]  # the second walk keeps J_0 and recomputes J_1
    with pytest.raises(AssertionError, match="stalled"):
        classify(rep)


def test_validate_ranks_only_generators_of_the_wrong_order(monkeypatch):
    ranks = []
    rank = MatrixFF.rank
    monkeypatch.setattr(MatrixFF, "rank", lambda self: ranks.append(self) or rank(self))
    for rep in (regular_rep(2, 3), big_rep(3, 1, 2), basic_rep(2, 2, 2).rep):
        assert validate(rep) == []
    assert ranks == []
    ctx = FieldCtx(3, 1)
    swap = ints(ctx, [[0, 1], [1, 0]])
    singular = ints(ctx, [[1, 1], [1, 1]])
    unipotent = ints(ctx, [[1, 1], [0, 1]])
    assert validate(Rep._of(ctx, 2, (unipotent, singular, swap))) == [
        "generator 1 is singular",
        "generator 2 does not have order dividing 3",
        "generators 0 and 1 do not commute",
        "generators 0 and 2 do not commute",
    ]
    assert ranks == [singular, swap]


def test_classify_without_conjugation_or_subspace_loops(monkeypatch):
    def forbidden(*args):
        raise AssertionError("classify must not call this")

    for name in ("intersect", "preimage"):
        monkeypatch.setattr(ff, name, forbidden)
    monkeypatch.setattr(reps, "iso_to_basic", forbidden)
    cases = [
        (wedge_sum(basic_rep(2, 1, 1), basic_rep(2, 1, 2)).rep, 3, 3),
        (wedge_sum(basic_rep(2, 2, 1), basic_rep(2, 2, 1)).rep, 4, 2),
        (big_rep(2, 2, 2), 4, 2),
        (regular_rep(2, 3), 3, 3),
    ]
    gf4 = basic_rep(2, 2, 1).rep
    for exps, has_model in [
        ([[1, 0], [0, 1]], True),
        ([[1, 1], [0, 1]], False),
        ([[0, 1], [1, 0]], False),
    ]:
        cases.append((pullback(gf4, exps), 2, 1 if has_model else None))
    for rep, m, n in cases:
        red = classify(rep)
        assert (red.verdict, red.quotient_rank) == ("reduced", m)
        if n is None:
            assert red.basic_model is None
        else:
            assert red.basic_model == basic_rep(2, rep.ctx.r, n)


def test_socle_filtration_both_routes_agree_on_stock_reps():
    for rep in [
        basic_rep(2, 1, 2).rep,
        sym_power_rep(3, 1),
        sym_power_rep(2, 2),
        big_rep(2, 1, 2),
        regular_rep(3, 1),
        dual_rep(basic_rep(3, 1, 2).rep),
    ]:
        quot = reps.socle_filtration(rep)
        ann = reps.socle_filtration_by_annihilators(rep)
        assert quot == ann


def test_restrict_and_quotient():
    xi = sym_power_rep(3, 1)
    stages = socle_filtration(xi)
    sub = restrict(xi, stages[1])
    assert sub.dim == 2
    assert sub.generators[0] == ints(xi.ctx, [[1, 1], [0, 1]])
    quo = quotient(xi, Subspace.full(xi.ctx, 3))
    assert quo.dim == 0
    fixed_restr = restrict(xi, stages[0])
    assert all(g == MatrixFF.identity(xi.ctx, 1) for g in fixed_restr.generators)
    with pytest.raises(Exception):
        restrict(xi, Subspace.from_vectors(xi.ctx, 3, [(0, 1, 0)]))


def test_regular_rep_frozen():
    reg = regular_rep(2, 1)
    assert reg.generators[0] == ints(reg.ctx, [[0, 1], [1, 0]])
    fs = socle_filtration(regular_rep(2, 2))[0]
    assert fs.dim == 1
    ones = (1,) * 4
    assert fs.contains(ones)
    with pytest.raises(Exception):
        reps.regular_rep(2, 0)


def test_big_rep_dimensions():
    assert big_rep(3, 1, 2).dim == 9
    assert big_rep(2, 2, 2).dim == 4
    assert big_rep(2, 1, 3).dim == 8


def test_socle_of_big_rep_carries_basic():
    for p, r, n in [(2, 1, 2), (3, 1, 2), (2, 2, 1), (2, 2, 2), (5, 1, 1)]:
        big = big_rep(p, r, n)
        stages = socle_filtration(big)
        j1 = stages[min(1, len(stages) - 1)]
        assert j1.dim == n + 1
        restricted = restrict(big, j1)
        t = iso_to_basic(restricted)
        target = basic_rep(p, r, n)
        t_inv = t.inverse()
        for g, b in zip(restricted.generators, target.rep.generators):
            assert t.mul(g).mul(t_inv) == b


def test_iso_to_basic_identity_and_errors():
    pr = basic_rep(3, 1, 2)
    t = iso_to_basic(pr.rep)
    t_inv = t.inverse()
    for g, b in zip(pr.rep.generators, pr.rep.generators):
        assert t.mul(g).mul(t_inv) == b
    with pytest.raises(ReductionError, match="fixed space"):
        iso_to_basic(direct_sum(pr.rep, pr.rep))
    big = big_rep(3, 1, 2)
    with pytest.raises(ReductionError, match="socle|rank"):
        iso_to_basic(big)


def test_iso_to_basic_regular_rep():
    reg = regular_rep(2, 2)
    stages = socle_filtration(reg)
    restricted = restrict(reg, stages[1])
    t = iso_to_basic(restricted)
    target = basic_rep(2, 1, 2)
    t_inv = t.inverse()
    for g, b in zip(restricted.generators, target.rep.generators):
        assert t.mul(g).mul(t_inv) == b


def test_wedge_of_basics_is_basic():
    for p, r, a, b in [(2, 1, 1, 1), (3, 1, 1, 2), (2, 2, 1, 1)]:
        w = wedge_sum(basic_rep(p, r, a), basic_rep(p, r, b))
        assert w.rep.dim == (a + 1) + (b + 1) - 1
        red = classify(w.rep)
        assert red.verdict == "reduced"
        assert red.quotient_rank == r * (a + b)
        assert red.basic_model is not None
        assert red.basic_model.rep.dim == a + b + 1


def test_wedge_chi_agrees_with_basic_answer():
    w = wedge_sum(basic_rep(2, 1, 1), basic_rep(2, 1, 1))
    for k in (1, 2, 3, 5):
        assert chi_of_rep(w.rep, k) == dickson.power_sum(2, 2, k).neg()


def test_big_rep_chi_agrees_with_basic_answer():
    for p, n in [(2, 2), (3, 2)]:
        big = big_rep(p, 1, n)
        for k in range(1, 2 * (p**n - 1) + 1, max(1, p - 1)):
            assert chi_of_rep(big, k) == dickson.power_sum(p, n, k).neg()


def test_socle_tensor_check_mixed_product():
    for p in (2, 3):
        xi = sym_power_rep(p, 1)
        b = basic_rep(p, 1, 1).rep
        for i in range(xi.dim * b.dim):
            assert socle_tensor_check(xi, b, i)


def test_extension_field_reduction_without_basic_model():
    # one generator of F_4's additive group acting on the plane: the
    # quotient rank 1 is not a multiple of r = 2, so no basic model
    pr = basic_rep(2, 2, 1)
    sub = pullback(pr.rep, [[1], [0]])
    red = classify(sub)
    assert red.verdict == "reduced"
    assert red.quotient_rank == 1
    assert red.basic_model is None


def test_dual_of_basic_has_two_fixed_lines():
    nu = dual_rep(basic_rep(2, 1, 2).rep)
    assert socle_filtration(nu)[0].dim == 2
    assert classify(nu).verdict == "zero"


def test_classify_checks_the_modulus_once(monkeypatch):
    # the basic model is built on the rep's own field, so classify at
    # GF(251^2) trial-divides no modulus after the field is made
    modulus = ff.find_irreducible(251, 2)
    calls = []
    is_irreducible = ff._is_irreducible

    def counted(poly, p):
        calls.append(poly)
        return is_irreducible(poly, p)

    monkeypatch.setattr(ff, "_is_irreducible", counted)
    pr = basic_rep(251, 2, 1, modulus)
    red = classify(pr.rep)
    assert red.verdict == "reduced" and red.basic_model == pr
    assert red.basic_model.rep.ctx is pr.rep.ctx
    assert calls == [modulus]


def test_classify_frozen_cases():
    red = classify(big_rep(2, 1, 2))
    assert red.verdict == "reduced"
    assert red.quotient_rank == 2
    assert [list(row) for row in red.projection] == [[1, 0], [0, 1]]
    assert classify(direct_sum(basic_rep(2, 1, 1).rep, basic_rep(2, 1, 1).rep)).verdict == "zero"
    surj = [[1, 0, 0], [0, 1, 1]]
    red2 = classify(pullback(basic_rep(2, 1, 2).rep, surj))
    assert red2.verdict == "reduced"
    assert red2.quotient_rank == 2
    assert [list(row) for row in red2.projection] == surj


def _classify_digest_cases():
    # random reps over fields the filtration suite's grid lacks, then
    # pullbacks of basic reps over GF(4), GF(8), GF(9) along the identity
    # (basic model) and random exponent matrices (mostly none)
    from modchar.verify import random_valid_rep

    rng = random.Random(20261018)
    for p, r in ((5, 1), (7, 1), (2, 3), (3, 2)):
        ctx = FieldCtx(p, r)
        for _ in range(60):
            yield random_valid_rep(rng, ctx)
    for p, r in ((2, 2), (2, 3), (3, 2)):
        for n in (1, 2):
            base = basic_rep(p, r, n).rep
            s = r * n
            yield pullback(base, [[int(i == j) for j in range(s)] for i in range(s)])
            for _ in range(8):
                cols = rng.randrange(1, s + 2)
                yield pullback(base, [[rng.randrange(p) for _ in range(cols)] for _ in range(s)])


def test_classify_digest_on_seeded_mix():
    # sha256 of every verdict, quotient rank, projection and basic model,
    # recorded before classify read the reduction off one pairing
    digest = hashlib.sha256()
    outcomes = set()
    for rep in _classify_digest_cases():
        red = classify(rep)
        model = red.basic_model
        outcomes.add((rep.ctx.r > 1, red.verdict, model is not None))
        record = [
            red.verdict,
            red.quotient_rank,
            red.projection and [list(row) for row in red.projection],
            model and rep_to_dict(model.rep, model.basepoint),
        ]
        digest.update(json.dumps(record).encode() + b"\n")
    assert outcomes == {
        (False, "zero", False),
        (False, "reduced", True),
        (True, "zero", False),
        (True, "reduced", False),
        (True, "reduced", True),
    }
    assert digest.hexdigest() == "442488c58e61cd1dca13cd856b13428c07b32e9736b7b2bdd0696bd41a9243ec"


def test_classify_rejects_invalid():
    ctx = FieldCtx(3, 1)
    swap = ints(ctx, [[0, 1], [1, 0]])
    with pytest.raises(RepValidationError):
        classify(Rep(ctx, 2, (swap,)))


def test_chi_of_rep_regular_matches_power_sums():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        reg = regular_rep(p, n)
        for k in range(1, 2 * (p**n - 1) + 1):
            assert chi_of_rep(reg, k) == dickson.power_sum(p, n, k).neg()


def test_chi_of_rep_zero_and_pullback():
    two = direct_sum(basic_rep(2, 1, 1).rep, basic_rep(2, 1, 1).rep)
    assert chi_of_rep(two, 3).is_zero()
    surj = [[1, 0, 0], [0, 1, 1]]
    pulled = pullback(basic_rep(2, 1, 2).rep, surj)
    got = chi_of_rep(pulled, 3)
    want = dickson.MultiPoly(
        2, 3, {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (1, 0, 2): 1}
    )
    assert got == want
    assert got.render() == "z1^2 z2 + z1^2 z3 + z1 z2^2 + z1 z3^2"


def test_chi_of_rep_requires_prime_field():
    with pytest.raises(ValueError):
        chi_of_rep(basic_rep(2, 2, 1).rep, 3)
    with pytest.raises(ValueError):
        chi_of_rep(basic_rep(2, 1, 1).rep, 0)


def test_socle_tensor_compatibility():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        xi = sym_power_rep(p, r)
        for i in range(xi.dim**2):
            assert socle_tensor_check(xi, xi, i)
    pr = basic_rep(2, 1, 1).rep
    trivial = Rep(pr.ctx, 1, (MatrixFF.identity(pr.ctx, 1),))
    prod = tensor_rep(pr, trivial)
    assert [s.dim for s in socle_filtration(prod)] == [
        s.dim for s in socle_filtration(pr)
    ]


def test_element_and_pullback_consistency():
    rep = basic_rep(3, 1, 2).rep
    g0, g1 = rep.generators
    assert rep.element([1, 2]) == g0.mul(g1).mul(g1)
    ident = pullback(rep, [[1, 0], [0, 1]])
    assert ident.generators == rep.generators
    redundant = pullback(rep, [[1, 0, 1], [0, 1, 1]])
    assert redundant.rank == 3
    assert redundant.generators[2] == g0.mul(g1)


def test_pointed_rep_validation():
    pr = basic_rep(2, 1, 1)
    with pytest.raises(RepValidationError):
        PointedRep(pr.rep, (0, 0))
    with pytest.raises(RepValidationError):
        PointedRep(pr.rep, (0, 1))  # moved by the generator


def test_serialization_round_trip():
    for rep, base in [
        (basic_rep(3, 1, 2).rep, basic_rep(3, 1, 2).basepoint),
        (basic_rep(2, 2, 1).rep, basic_rep(2, 2, 1).basepoint),
        (regular_rep(2, 2), None),
    ]:
        blob = json.dumps(rep_to_dict(rep, base))
        parsed, parsed_base = rep_from_dict(json.loads(blob))
        assert parsed == rep
        assert parsed_base == base
        assert validate(parsed) == []
        blob2 = json.dumps(rep_to_dict(parsed, parsed_base))
        assert blob2 == blob


def test_rep_from_dict_errors():
    with pytest.raises(ValueError, match="missing"):
        rep_from_dict({"p": 2})
    with pytest.raises(ValueError, match="generator 0"):
        rep_from_dict({"p": 2, "r": 1, "dim": 2, "generators": [[[1, 0], [0]]]})
    good = {"p": 2, "r": 1, "dim": 2, "generators": [[[1, 1], [0, 1]]], "basepoint": [1, 0]}
    rep_from_dict(good)
    bad_inputs = [
        ({"generators": [["11", "01"]]}, "generator 0"),  # rows must be arrays
        ({"generators": [[[True, True], [False, True]]]}, "generator 0"),
        ({"generators": [5]}, "generator 0"),
        ({"generators": "11"}, "generators"),
        ({"p": True}, "p = True"),
        ({"r": True}, "r = True"),
        ({"dim": True}, "dim = True"),
        ({"p": "2"}, "p = '2'"),
        ({"dim": 2.0}, "dim = 2.0"),
        ({"dim": 0, "generators": []}, "dim = 0"),
        ({"dim": -1, "generators": []}, "dim = -1"),
        ({"basepoint": [True, False]}, "basepoint"),
        ({"basepoint": "10"}, "basepoint"),
        ({"basepoint": [0, 0]}, "basepoint is zero"),
        ({"r": 2, "modulus": [True, True, 1], "generators": []}, "modulus"),
        ({"r": 2, "generators": [[[[1, False], 0], [0, 1]]]}, "generator 0"),
    ]
    for change, match in bad_inputs:
        with pytest.raises(ValueError, match=match):
            rep_from_dict({**good, **change})
    for top in ([1, 2], "rep", 3, None):
        with pytest.raises(ValueError, match="must be a JSON object"):
            rep_from_dict(top)


def test_random_reps_filtration_agreement():
    from modchar.verify import random_valid_rep

    rng = random.Random(5)
    for i in range(30):
        ctx = [FieldCtx(2, 1), FieldCtx(3, 1), FieldCtx(2, 2)][i % 3]
        rep = random_valid_rep(rng, ctx)
        assert validate(rep) == []
        assert rep.dim <= 8 and 1 <= rep.rank <= 3
        quot = reps.socle_filtration(rep)
        ann = reps.socle_filtration_by_annihilators(rep)
        assert quot == ann
        dims = [s.dim for s in quot]
        assert dims[-1] == rep.dim
        assert all(b > a for a, b in zip(dims, dims[1:]))


def _annihilator_stages_by_intersection(rep):
    """Reference for socle_filtration_by_annihilators: J_i as the
    intersection of the kernels of the (i+1)-fold products of generator
    differences, one product at a time."""
    ctx, n = rep.ctx, rep.dim
    ident = MatrixFF.identity(ctx, n)
    diffs = [g.sub(ident) for g in rep.generators]
    full = Subspace.full(ctx, n)
    stages, products = [], [(ident, 0)]
    while not stages or stages[-1] != full:
        products = [(m.mul(diffs[j]), j) for m, start in products for j in range(start, len(diffs))]
        stage = full
        for m, _ in products:
            stage = ff.intersect(stage, ff.kernel(m))
        stages.append(stage)
    return stages


def test_annihilator_route_matches_intersected_kernels_on_random_reps():
    from modchar.verify import random_valid_rep

    rng = random.Random(11)
    for i in range(24):
        rep = random_valid_rep(rng, [FieldCtx(2, 1), FieldCtx(3, 1), FieldCtx(2, 2)][i % 3])
        assert reps.socle_filtration_by_annihilators(rep) == _annihilator_stages_by_intersection(rep)


def test_annihilator_route_reads_no_memo_and_no_membership_matrix(monkeypatch):
    def forbidden(*args):
        raise RuntimeError("the annihilator route must stay independent")

    rep = regular_rep(3, 2)
    want = _annihilator_stages_by_intersection(rep)
    monkeypatch.setattr(reps, "_stages", forbidden)
    monkeypatch.setattr(Subspace, "membership_matrix", forbidden)
    for r in (rep, big_rep(2, 2, 2), basic_rep(3, 1, 2).rep):
        stages = reps.socle_filtration_by_annihilators(r)
        assert stages[-1] == Subspace.full(r.ctx, r.dim)
    assert reps.socle_filtration_by_annihilators(rep) == want
    with pytest.raises(RuntimeError, match="independent"):
        socle_filtration(regular_rep(2, 2))


def test_annihilator_route_runs_off_the_packed_gf2_rows(monkeypatch):
    def packed(*args):
        raise RuntimeError("packed GF(2) row code")

    monkeypatch.setattr(ff, "_xor_product", packed)
    monkeypatch.setattr(ff, "_xor_echelon", packed)
    stages = reps.socle_filtration_by_annihilators(regular_rep(2, 4))
    # the cumulative Hilbert function of F_2[x_1..x_4]/(x_i^2): 1, 4, 6, 4, 1
    assert [s.dim for s in stages] == [1, 5, 11, 15, 16]
    with pytest.raises(RuntimeError, match="packed"):
        socle_filtration(regular_rep(2, 4))


def test_loewy_dims_match_the_annihilator_route():
    from modchar.verify import loewy_dims

    for p, n in ((2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2)):
        stages = reps.socle_filtration_by_annihilators(regular_rep(p, n))
        assert [s.dim for s in stages] == loewy_dims(p, n)


def test_only_the_full_filtration_suite_walks_at_the_dim_bound(monkeypatch):
    from modchar import verify

    walk = reps.socle_filtration

    def drops_a_stage_at_256(rep):
        stages = walk(rep)
        return stages[:1] + stages[2:] if rep.dim == 256 else stages

    monkeypatch.setattr(reps, "socle_filtration", drops_a_stage_at_256)
    assert verify.suite_filtration("quick").ok
    result = verify.suite_filtration("full")
    assert not result.ok and "regular_rep(2, 8)" in result.detail


def test_annihilator_route_raises_on_a_stall():
    ctx = FieldCtx(3, 1)  # order 2 over GF(3): not unipotent
    with pytest.raises(AssertionError, match="stalled"):
        reps.socle_filtration_by_annihilators(Rep._of(ctx, 2, (ints(ctx, [[0, 1], [1, 0]]),)))
