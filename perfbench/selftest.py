"""Self-test of the benchmark's checks: a corrupted answer must fail.

    python3 perfbench/selftest.py

For one query of each kind it computes the program's answer, confirms
the check accepts it, changes one coefficient (or one number) of it, and
confirms the check rejects the result.  Exits 1 if any corruption slips
through.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import CheckFailure  # noqa: E402


def bump(terms, p):
    """Change the first coefficient of a sparse [(key, c)] list to another
    residue: another nonzero one for odd p, zero (dropping it) for p = 2."""
    out = list(terms)
    key, c = out[0]
    if p == 2:
        return out[1:]
    out[0] = (key, c % (p - 1) + 1)
    return out


def bump_first_class(classes, p):
    """Corrupt the first nonzero class of a list of classes."""
    i = next(i for i, terms in enumerate(classes) if terms)
    return classes[:i] + [bump(classes[i], p)] + classes[i + 1 :]


CASES = [
    ("classes", "ypow/3/3/2-52", lambda d: bump_first_class(d, 3)),
    ("classes", "ypow/2/5/31-62", lambda d: bump_first_class(d, 2)),
    ("classes", "band/3/2/2/37-52", lambda d: [(deg, m, t) for (deg, m, _), t in zip(d, bump_first_class([t for _, _, t in d], 3))]),
    ("dickson", "power/2/5/62", lambda d: bump(d, 2)),
    ("dickson", "report/3/2", lambda d: {**d, "total": {**d["total"], 6: bump(d["total"][6], 3)}}),
    ("dickson", "scan/2.4", lambda d: [d[0][:-1]]),
    ("reps", "regular/3/2", lambda d: {**d, "chi": {**d["chi"], 14: bump(d["chi"][14], 3)}}),
    ("reps", "regular/2/3", lambda d: {**d, "socle_dims": [d["socle_dims"][0] + 1] + d["socle_dims"][1:]}),
    ("reps", "wedge/3/1/1+2", lambda d: {**d, "quotient_rank": d["quotient_rank"] - 1}),
    ("reps", "conj/big/2/2/3", lambda d: {**d, "socle_dims": d["socle_dims"][:-2] + d["socle_dims"][-1:]}),
]


def cli_case():
    """A `modchar chi` JSON answer with one coefficient changed."""
    import json

    import wl_cli
    from harness import run_cli

    work = HERE.parent / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    try:
        code, stdout, *_ = run_cli(["chi", "--p", "3", "--n", "3", "--alpha", "y^52", "--format", "json"], work)
    finally:
        for name in ("stdout", "stderr"):
            (work / name).unlink(missing_ok=True)
        try:
            work.rmdir()
        except OSError:
            pass
    if code != 0:
        raise RuntimeError(f"modchar chi exited {code}")
    check = wl_cli.check_chi("json", 3, 1, 3, ((0,), (52,)), random.Random(1))
    check(stdout)
    payload = json.loads(stdout)
    payload["terms"][0]["coeff"] = payload["terms"][0]["coeff"] % 2 + 1
    return check, json.dumps(payload)


def main() -> int:
    import importlib

    bad = 0
    check, corrupted = cli_case()
    try:
        check(corrupted)
    except CheckFailure as exc:
        print(f"ok    cli/chi --format json: corruption caught ({exc})")
    else:
        print("FAIL  cli/chi --format json: corrupted answer passed the check")
        bad += 1
    built = {}
    for workload, name, corrupt in CASES:
        if workload not in built:
            wl = importlib.import_module(f"wl_{workload}")
            built[workload] = {q.name: q for q in wl.setup(1, HERE)}
        q = built[workload][name]
        data = q.canon(q.run())
        q.check(data, random.Random(1))  # the true answer passes
        try:
            q.check(corrupt(data), random.Random(1))
        except CheckFailure as exc:
            print(f"ok    {workload}/{name}: corruption caught ({exc})")
        else:
            print(f"FAIL  {workload}/{name}: corrupted answer passed the check")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
