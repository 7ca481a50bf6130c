"""`dickson` workload: the dickson layer alone.

Full identity reports (the work behind `modchar dickson`) recompute
dickson_total n + 4 times and grow the power-sum cache across k; one-off
high-k power sums use that cache once; consecutive-k scans reuse it.
"""

from __future__ import annotations

import oracle
from harness import ForkQuery
from oracle import require

REPORTS = ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2))
POWER_SUMS = ((5, 3, 40), (2, 5, 62))
SCANS = (((2, 4),), ((3, 3),), ((2, 3), (3, 2), (5, 2), (7, 2)))
TOTALS = ((2, 5),)


def _terms(poly):
    return sorted(poly.terms.items())


def _components(total):
    return {d: _terms(poly) for d, poly in sorted(total.components.items())}


def setup(seed: int, workdir):
    from modchar import dickson

    def report(p, n):
        """What `modchar dickson --p P --n N` computes."""
        dmax = 3 * (p**n - 1)
        total = dickson.dickson_total(p, n)
        allowed = {p**n - p**i for i in range(n + 1)} | {0}
        out = {
            "total": total,
            "sparsity": all(d in allowed for d in total.components),
            "newton": dickson.newton_check(p, n, dmax),
            "inverse": dickson.chi_total_from_inverse(p, n, dmax) == dickson.alternating_chi_total(p, n, dmax),
            "signs": {},
        }
        for i in range(n + 1):
            try:
                out["signs"][i] = dickson.product_identity_check(p, n, i)
            except dickson.IdentityFailure:
                out["signs"][i] = 0
        return out

    queries = []
    for p, n in REPORTS:

        def check(data, rng, p=p, n=n):
            oracle.check_dickson_components(p, n, data["total"], rng)
            require(data["sparsity"] and data["newton"] and data["inverse"], f"report {p, n}: an identity failed")
            for i, sign in data["signs"].items():
                require(sign in (1, -1), f"report {p, n}: product identity i={i} matched neither sign")
                oracle.check_product_sign(p, n, i, sign, rng)
            return {}

        queries.append(
            ForkQuery(
                f"report/{p}/{n}",
                lambda p=p, n=n: report(p, n),
                lambda out: {**out, "total": _components(out["total"])},
                check,
            )
        )

    for p, n, k in POWER_SUMS:

        def check(data, rng, p=p, n=n, k=k):
            oracle.sz_power_sum(p, n, k, data, rng)
            return {}

        queries.append(
            ForkQuery(f"power/{p}/{n}/{k}", lambda p=p, n=n, k=k: dickson.power_sum(p, n, k), _terms, check)
        )

    for group in SCANS:

        def check(data, rng, group=group):
            for (p, n), ks in zip(group, data):
                require(ks == oracle.nonzero_degrees(p, n), f"scan {p, n}: nonzero y^k at {ks}")
            return {}

        queries.append(
            ForkQuery(
                "scan/" + "+".join(f"{p}.{n}" for p, n in group),
                lambda group=group: [dickson.nonzero_chi_degrees(p, n) for p, n in group],
                list,
                check,
            )
        )

    for p, n in TOTALS:

        def check(data, rng, p=p, n=n):
            oracle.check_dickson_components(p, n, data, rng)
            return {}

        queries.append(
            ForkQuery(f"total/{p}/{n}", lambda p=p, n=n: dickson.dickson_total(p, n), _components, check)
        )
    return queries


def cross_check(facts: dict) -> list:
    return []
