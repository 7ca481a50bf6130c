"""`reps` workload: the ff and reps layers, as `modchar rep-analyze` runs
them: parse the rep file, validate, socle_filtration, classify, and
chi_of_rep for a few k on prime fields.

Prime and extension fields; large dimension with few generators
(regular and big reps) and small dimension with many generators
(pullbacks, wedge sums); plus seeded random conjugates of these and of
random compositional reps.
"""

from __future__ import annotations

import random

import oracle
from gf import SmallField, rref
from harness import ForkQuery

RANDOM_BATCH = 6


def _invertible(field: SmallField, dim: int, rng):
    while True:
        t = [[rng.randrange(field.q) for _ in range(dim)] for _ in range(dim)]
        aug = [row + [int(i == j) for j in range(dim)] for i, row in enumerate(t)]
        red, pivots = rref(field, aug)
        if pivots[:dim] == list(range(dim)):
            return t, [row[dim:] for row in red]


def _matmul(field, a, b):
    add, mul = field.add, field.mul
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = 0
            for x, brow in zip(row, b):
                y = brow[j]
                if x and y:
                    acc = add[acc][mul[x][y]]
            new.append(acc)
        out.append(new)
    return out


def conjugate(obj: dict, rng) -> dict:
    """T g T^-1 for every generator, T a seeded random invertible matrix
    (benchmark arithmetic, not the program's)."""
    field = oracle.rep_field(obj)
    t, t_inv = _invertible(field, obj["dim"], rng)
    gens = []
    for g in oracle.rep_matrices(field, obj):
        conj = _matmul(field, _matmul(field, t, g), t_inv)
        if field.r == 1:
            gens.append(conj)
        else:
            gens.append([[field.coords(x) for x in row] for row in conj])
    return {**obj, "generators": gens}


def surjection(p, n, s, rng):
    """A seeded n x s integer matrix of rank n over F_p."""
    field = SmallField(p, (0, 1))
    while True:
        rows = [[rng.randrange(p) for _ in range(s)] for _ in range(n)]
        if len(rref(field, rows)[1]) == n:
            return rows


def setup(seed: int, workdir):
    from modchar import reps, verify
    from modchar.ff import FieldCtx

    rng = random.Random(f"{seed}/reps")
    as_dict = reps.rep_to_dict
    cases = []  # (name, rep dict, chi exponents, expected socle dims or None)

    def add(name, obj, ks=(), dims=None):
        cases.append((name, obj, tuple(ks), dims))

    # regular (5,2) and (3,3) are left out: one analysis takes 2.1 s and
    # 4.4 s here, so a run would fit too few rounds for a steady median
    for p, n, ks in ((2, 3, (7, 13)), (2, 4, (15,)), (3, 2, (8, 14))):
        add(f"regular/{p}/{n}", as_dict(reps.regular_rep(p, n)), ks, oracle.loewy_dims(p, n))
    for p, r, n, ks in ((3, 1, 2, (8, 16)), (2, 1, 3, (7,)), (2, 2, 2, ()), (2, 2, 3, ()), (3, 2, 2, ())):
        add(f"big/{p}/{r}/{n}", as_dict(reps.big_rep(p, r, n)), ks, oracle.loewy_dims(p, n))

    def basic(p, r, n):
        return reps.basic_rep(p, r, n)

    add("sum/2/regular2+basic2", as_dict(reps.direct_sum(reps.regular_rep(2, 2), basic(2, 1, 2).rep)), (1, 3))
    add("sum/3/basic1+basic2", as_dict(reps.direct_sum(basic(3, 1, 1).rep, basic(3, 1, 2).rep)), (2,))
    add("sum/4/basic1+sym", as_dict(reps.direct_sum(basic(2, 2, 1).rep, reps.sym_power_rep(2, 2))))
    for p, r, a, b, ks in ((2, 1, 2, 1, (7, 11)), (3, 1, 1, 2, (26,)), (5, 1, 1, 1, (24,)), (3, 2, 1, 1, ()), (2, 2, 1, 2, ())):
        wedge = reps.wedge_sum(basic(p, r, a), basic(p, r, b))
        add(f"wedge/{p}/{r}/{a}+{b}", as_dict(wedge.rep, wedge.basepoint), ks)
    # pullbacks along seeded surjections F_p^s -> F_p^n, so every seed gives
    # a reduced verdict of rank n and the same amount of work
    for p, n, s_new, ks in ((2, 3, 4, (7,)), (3, 2, 3, (8,)), (5, 2, 3, (24,)), (7, 2, 2, (48,))):
        add(f"pullback/{p}/{n}/{s_new}", as_dict(reps.pullback(basic(p, 1, n).rep, surjection(p, n, s_new, rng))), ks)
    add("pullback/regular/2/2/3", as_dict(reps.pullback(reps.regular_rep(2, 2), surjection(2, 2, 3, rng))), (3,))

    by_name = {name: (obj, ks, dims) for name, obj, ks, dims in cases}
    for name, ks in (
        ("regular/2/3", (7,)),
        ("regular/3/2", (8,)),
        ("big/3/1/2", (16,)),
        ("big/2/1/3", (7,)),
        ("big/2/2/2", ()),
        ("big/2/2/3", ()),
        ("sum/3/basic1+basic2", (2,)),
        ("wedge/3/1/1+2", (26,)),
        ("pullback/3/2/3", (8,)),
    ):
        obj, _, dims = by_name[name]
        add(f"conj/{name}", conjugate(obj, rng), ks, dims)

    def analyze(obj, ks):
        rep, _ = reps.rep_from_dict(obj)
        violations = reps.validate(rep)
        if violations:
            raise ValueError("; ".join(violations))
        stages = reps.socle_filtration(rep)
        red = reps.classify(rep)
        return stages, red, {k: reps.chi_of_rep(rep, k) for k in ks}

    def canon(out):
        stages, red, chi = out
        return {
            "socle_dims": [s.dim for s in stages],
            "verdict": red.verdict,
            "quotient_rank": red.quotient_rank,
            "projection": [list(row) for row in red.projection or ()],
            "chi": {k: sorted(poly.terms.items()) for k, poly in chi.items()},
        }

    queries = []
    for name, obj, ks, dims in cases:
        queries.append(
            ForkQuery(
                name,
                lambda obj=obj, ks=ks: analyze(obj, ks),
                canon,
                lambda data, rng, obj=obj, dims=dims: oracle.check_rep_answer(obj, data, rng, dims) or {},
            )
        )

    # Random compositional reps are small, so each query analyses a batch.
    # Their cost grows steeply with dimension and generator count, and six
    # free draws per seed moved a batch's time by up to 16x.  So the
    # compositions come from a fixed stream, and the seed conjugates each.
    for p, r in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        ctx = FieldCtx(p, r)
        compositions = random.Random(f"compositional/{p}/{r}")
        batch = [conjugate(as_dict(verify.random_valid_rep(compositions, ctx)), rng) for _ in range(RANDOM_BATCH)]
        ks = (p * p - 1,) if r == 1 else ()

        def check(data, rng, batch=batch):
            for obj, answer in zip(batch, data):
                oracle.check_rep_answer(obj, answer, rng)
            return {}

        queries.append(
            ForkQuery(
                f"random/{p}/{r}",
                lambda batch=batch, ks=ks: [analyze(obj, ks) for obj in batch],
                lambda out: [canon(one) for one in out],
                check,
            )
        )
    return queries


def cross_check(facts: dict) -> list:
    return []
