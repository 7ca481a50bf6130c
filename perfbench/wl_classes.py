"""`classes` workload: the mono, coalg and chi layers, no matrices.

One deep iterated coproduct (y^63 at p=2, n=6; y^624 at p=5, n=4)
against many shallow ones (every basis monomial of a band of degrees
over GF(4), GF(8) and GF(9) at n = 2, 3), beside splitting searches,
universal tables, tuple certificates and invariant-basis sweeps.
"""

from __future__ import annotations

import random

import oracle
from harness import ForkQuery
from oracle import require

# prime-field y^k classes: (p, n, exponents)
Y_POWERS = (
    (2, 6, (63,)),
    (5, 4, (624,)),
    (2, 5, (31, 47, 55, 59, 61, 62)),
    (3, 3, tuple(range(2, 53, 2))),
    (5, 3, tuple(range(100, 249, 4))),
    (7, 2, tuple(range(6, 601, 6))),
)
# every basis monomial of degrees [lo, hi] over GF(p^r) at rank n
BANDS = (
    (2, 2, 2, 1, 24),
    (2, 2, 2, 25, 36),
    (2, 2, 3, 1, 24),
    (2, 2, 3, 25, 34),
    (2, 3, 2, 1, 16),
    (2, 3, 2, 17, 24),
    (2, 3, 3, 1, 18),
    (2, 3, 3, 19, 24),
    (3, 2, 2, 1, 36),
    (3, 2, 2, 37, 52),
    (3, 2, 3, 1, 40),
    (3, 2, 3, 41, 56),
)
TABLES = ((3, 1, 3, 400), (5, 1, 2, 600), (2, 1, 4, 400), (7, 1, 2, 500), (2, 3, 3, None), (3, 2, 2, None))
TUPLES = ((3, 3, 300), (2, 3, 120), (5, 4, 200), (7, 3, 360), (2, 4, 40))
BASIS_SWEEPS = ((2, 4, 24), (3, 3, 30), (5, 2, 120), (3, 2, 100), (2, 3, 40), (7, 2, 140))
DIGIT_PRIMES = (2, 3, 5, 7)
DIGIT_RANKS = (2, 3, 4)
DIGIT_PER_RANK = 400


def _mono(m):
    return (tuple(m.ext), tuple(m.pows))


def _class_terms(tc):
    return sorted((tuple(_mono(m) for m in tup), c) for tup, c in tc.terms.items())


def _key(m):
    return f"{m[0]}{m[1]}"


def setup(seed: int, workdir):
    from modchar import chi, mono
    from modchar.mono import Monomial

    rng = random.Random(f"{seed}/classes")
    queries = []

    for p, n, ks in Y_POWERS:
        alphas = [Monomial((0,), (k,)) for k in ks]

        def run(p=p, n=n, alphas=alphas):
            return [chi.chi_basic(p, 1, a, n) for a in alphas]

        def check(data, rng, p=p, n=n, ks=ks):
            for k, terms in zip(ks, data):
                oracle.check_class_terms(p, 1, n, (0,), (k,), terms)
                require(bool(terms) == oracle.r1_nonzero(p, 0, k, n), f"y^{k}: nonvanishing breaks the digit-sum rule")
                flat = [(tuple(f[1][0] for f in factors), c) for factors, c in terms]
                oracle.sz_power_sum(p, n, k, flat, rng, sign=-1)
            return {}

        queries.append(ForkQuery(f"ypow/{p}/{n}/{ks[0]}-{ks[-1]}", run, lambda out: [_class_terms(tc) for tc in out], check))

    for p, r, n, lo, hi in BANDS:

        def run(p=p, r=r, n=n, lo=lo, hi=hi):
            out = []
            for d in range(lo, hi + 1):
                for m in mono.enumerate_invariant_basis(p, r, d):
                    out.append((d, m, chi.chi_basic(p, r, m, n)))
            return out

        def check(data, rng, p=p, r=r, n=n, lo=lo, hi=hi):
            for d in range(lo, hi + 1):
                listed = [m for deg, m, _ in data if deg == d]
                require(len(listed) == len(set(listed)), f"degree {d}: repeated basis monomial")
                require(set(listed) == oracle.basis_brute(p, r, d), f"degree {d}: basis differs from the brute-force count")
            for _, m, terms in data:
                oracle.check_class_terms(p, r, n, m[0], m[1], terms)
            return {"nonzero": {_key(m): bool(terms) for _, m, terms in data}}

        queries.append(
            ForkQuery(
                f"band/{p}/{r}/{n}/{lo}-{hi}",
                run,
                lambda out: [(d, _mono(m), _class_terms(tc)) for d, m, tc in out],
                check,
            )
        )

    for p, r, n in sorted({(p, r, n) for p, r, n, _, _ in BANDS}):
        degrees = [d for pp, rr, nn, lo, hi in BANDS if (pp, rr, nn) == (p, r, n) for d in range(lo, hi + 1)]

        def run(p=p, r=r, n=n, degrees=degrees):
            return [(m, chi.is_chi_nonzero(p, r, m, n)) for d in degrees for m in mono.enumerate_invariant_basis(p, r, d)]

        queries.append(
            ForkQuery(
                f"search/{p}/{r}/{n}",
                run,
                lambda out: [(_mono(m), flag) for m, flag in out],
                lambda data, rng: {"nonzero": {_key(m): flag for m, flag in data}},
            )
        )

    for p in DIGIT_PRIMES:
        picks = []  # (a, m, n) with x^a y^m invariant
        for n in DIGIT_RANKS:
            count = 0
            while count < DIGIT_PER_RANK:
                m = rng.randrange(1, 10**9)
                s = oracle.digit_sum(p, m)
                for a in (0,) if p == 2 else (0, 1):
                    if (a + s) % (p - 1) == 0 or p == 2:
                        picks.append((a, m, n))
                        count += 1
                        break
        alphas = [(Monomial((a,), (m,)), n) for a, m, n in picks]

        def run(p=p, alphas=alphas):
            return [chi.is_chi_nonzero(p, 1, alpha, n) for alpha, n in alphas]

        def check(data, rng, p=p, picks=picks):
            for (a, m, n), flag in zip(picks, data):
                require(flag == oracle.r1_nonzero(p, a, m, n), f"x^{a} y^{m} at n={n}: search says {flag}")
            return {}

        queries.append(ForkQuery(f"digit/{p}", run, list, check))

    def run_tables():
        return [chi.universal_table(*args) for args in TABLES]

    def check_tables(data, rng):
        for (p, r, n, max_degree), rows in zip(TABLES, data):
            want = oracle.table_entries(p, r, n, max_degree)
            require(len(rows) == (p**n - 1) * len(want), f"table {p, r, n}: {len(rows)} rows")
            for N in range(2, p**n + 1):
                got = [row[1:] for row in rows if row[0] == N]
                require(set(got) == want, f"table {p, r, n}: entries for N={N} differ")
                require([g[2] for g in got] == sorted(g[2] for g in got), "table rows not in degree order")
        return {}

    queries.append(
        ForkQuery(
            "tables",
            run_tables,
            lambda out: [[(row.N, tuple(row.alpha.ext), tuple(row.alpha.pows), row.degree, row.status) for row in rows] for rows in out],
            check_tables,
        )
    )

    for p, n, total in TUPLES:

        def check(data, rng, p=p, n=n, total=total):
            require(data == oracle.tuples_brute(p, n, total), f"tuples {p, n, total} differ from brute force")
            return {}

        queries.append(
            ForkQuery(
                f"tuples/{p}/{n}/{total}",
                lambda p=p, n=n, total=total: chi.indecomposable_tuples(p, n, total),
                lambda out: [(tuple(t), d) for t, d in out],
                check,
            )
        )

    for p, r, dmax in BASIS_SWEEPS:

        def check(data, rng, p=p, r=r):
            for d, ms in enumerate(data):
                require(len(ms) == len(oracle.basis_brute(p, r, d)), f"basis {p, r} degree {d}: count differs from brute force")
                require(set(ms) == oracle.basis_brute(p, r, d), f"basis {p, r} degree {d} differs")
                require(ms == sorted(ms), f"basis {p, r} degree {d} not in canonical order")
            return {}

        queries.append(
            ForkQuery(
                f"basis/{p}/{r}/{dmax}",
                lambda p=p, r=r, dmax=dmax: [mono.enumerate_invariant_basis(p, r, d) for d in range(dmax + 1)],
                lambda out: [[_mono(m) for m in ms] for ms in out],
                check,
            )
        )
    return queries


def cross_check(facts: dict) -> list:
    """is_chi_nonzero agrees with a nonempty chi_basic on every band."""
    problems = []
    expanded = {}
    for name, f in facts.items():
        if name.startswith("band/"):
            p, r, n = name.split("/")[1:4]
            expanded.setdefault((p, r, n), {}).update(f["nonzero"])
    for name, f in facts.items():
        if name.startswith("search/"):
            key = tuple(name.split("/")[1:4])
            if f["nonzero"] != expanded.get(key):
                problems.append(f"{name}: is_chi_nonzero disagrees with chi_basic")
    return problems
