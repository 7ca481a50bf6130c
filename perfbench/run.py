"""Benchmark of modchar: four workloads, every answer checked.

    python3 perfbench/run.py --workload classes|dickson|reps|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a modchar checkout (it imports `src/modchar`).  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (setup_s, solve_s, p50_ms, peak_rss_mb); with `--trace 1` they are
the per-layer span totals of a traced run.  End-to-end times are in
reference-speed seconds (see calib.py and perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import spans  # noqa: E402
from harness import run_cli, run_fork  # noqa: E402
from oracle import CheckFailure  # noqa: E402

WORKLOADS = ("classes", "dickson", "reps", "cli")
UNITS = {"setup_s": "s", "solve_s": "s", "p50_ms": "ms", "peak_rss_mb": "MB"}
MIN_ROUNDS = 3  # each query's time is its median over at least this many
MAX_ROUNDS = 30
SETUP_SAMPLES = 5
STARTUP_PROBES = 3
CLI_COMMANDS = ("startup", "basis", "chi", "nonvanish", "tuples", "dickson", "rep-analyze", "verify")
VERIFY_SUITES = (
    "arithmetic",
    "coalgebra-laws",
    "oracle-equivalence",
    "digit-criterion",
    "wedge-consistency",
    "dickson-identities",
    "filtration",
    "classification",
)  # lowest-degrees and witnesses print 0.000 and 0.001 s: nothing to move


def per_layer_names():
    names = []
    for span in spans.SPANS:
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    names += ["ff.field_mul.calls", "coalg.coproduct.terms", "dickson.polymul.term_products", "coalg.kept_ratio"]
    for cmd in CLI_COMMANDS:
        names += [f"cli.{cmd}.calls", f"cli.{cmd}.s"]
    names += ["cache.miss.s", "cache.hit.s", "cache.files"]
    names += [f"verify.{suite}.s" for suite in VERIFY_SUITES]
    return names


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def load_workload(name):
    return importlib.import_module(f"wl_{name}")


def setup(workload: str, seed: int, workdir: Path):
    """Import modchar and build the workload's inputs; returns
    (queries, reference-speed seconds)."""
    start = time.perf_counter()
    queries = load_workload(workload).setup(seed, workdir)
    seconds = time.perf_counter() - start
    _, before, after = calib.bracket(lambda: None)
    return queries, calib.scale(seconds, before, after)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter (a fresh import of modchar)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, seed, queries, workdir, tracing):
        self.seed = seed
        self.queries = queries
        self.workdir = workdir
        self.tracing = tracing
        self.times = {q.name: [] for q in queries}  # wall seconds
        self.scaled = {q.name: [] for q in queries}  # reference-speed seconds
        self.refs = []  # every reference timing
        self.best_trace = {}  # query -> trace snapshot of its fastest repetition
        self.best_stdout = {}  # query -> stdout of its fastest repetition
        self.facts = {}
        self.digests = {}
        self.peak_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong answers
        self.errors = []  # failed operations, with their cause
        self.cache_files = 0
        if tracing:
            self.tracer = spans
            if any(not hasattr(q, "argv") for q in queries):
                spans.install()
        else:
            self.tracer = None

    def units(self):
        """Scheduling units: a cached pair (write, then read) stays
        together; everything else is one query."""
        units, pending = [], None
        for q in self.queries:
            role = getattr(q, "cache_role", None)
            if role == "write":
                pending = [q]
            elif role == "read":
                units.append(pending + [q])
                pending = None
            else:
                units.append([q])
        return units

    def record_time(self, name, seconds, ref, payload):
        best = min(self.times[name], default=None)
        self.times[name].append(seconds)
        self.scaled[name].append(calib.scale(seconds, *ref))
        self.refs += ref
        if best is None or seconds < best:
            if "trace" in payload:
                self.best_trace[name] = payload["trace"]
            if "stdout" in payload:
                self.best_stdout[name] = payload["stdout"]

    def fork_query(self, q, first):
        msg, peak = run_fork(q, first, self.seed, self.tracer)
        self.attempted += 1
        self.peak_mb = max(self.peak_mb, peak)
        if "error" in msg:
            self.failed += 1
            self.errors.append(f"{q.name}: {msg['error']}")
            return
        self.record_time(q.name, msg["t"], msg["ref"], msg)
        if "wrong" in msg:
            self.problems.append(f"{q.name}: {msg['wrong']}")
            return
        if first:
            self.facts[q.name] = msg.get("facts", {})
            self.digests[q.name] = msg["digest"]
        elif self.digests.get(q.name) not in (None, msg["digest"]):
            self.problems.append(f"{q.name}: answer changed between repetitions")

    def cli_query(self, q, first, round_no, cache_dirs, write_out):
        argv = list(q.argv)
        pair = q.name.rsplit(":", 1)[0]  # "cached-x:write" and "cached-x:read" share one directory
        if q.cache_role:
            cache_dir = cache_dirs.setdefault(pair, self.workdir / f"cache-{pair}-{round_no}")
            argv += ["--cache-dir", str(cache_dir)]
        trace_out = self.workdir / "trace.json" if self.tracing else None
        if trace_out is not None and trace_out.exists():
            trace_out.unlink()
        code, stdout, stderr, wall, peak, ref = run_cli(argv, self.workdir, trace_out)
        self.attempted += 1
        self.peak_mb = max(self.peak_mb, peak)
        payload = {"stdout": stdout}
        if trace_out is not None and trace_out.exists():
            payload["trace"] = json.loads(trace_out.read_text())
        self.record_time(q.name, wall, ref, payload)
        if code != q.expect_exit:
            self.failed += 1
            why = "accepted malformed input" if q.known_fault else f"stderr: {stderr.strip()[-300:]}"
            self.errors.append(f"{q.name}: exit {code}, expected {q.expect_exit} ({why})")
            return
        if q.expect_exit == 3 and not stderr.startswith("error:"):
            self.problems.append(f"{q.name}: exit 3 without an error message")
        if q.cache_role == "write":
            write_out[pair] = stdout
            if first:
                self.cache_files += sum(1 for _ in cache_dir.iterdir())
        if q.cache_role == "read" and stdout != write_out.get(pair):
            self.problems.append(f"{q.name}: cached output differs from the fresh output")
        try:
            if first or not q.stable:
                if q.check is not None:
                    self.facts[q.name] = q.check(stdout) or {}
                self.digests[q.name] = stdout
            elif stdout != self.digests.get(q.name):
                self.problems.append(f"{q.name}: output changed between repetitions")
        except CheckFailure as exc:
            self.problems.append(f"{q.name}: {exc}")

    def run(self, seconds):
        units = self.units()
        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            order = list(units)
            random.Random(f"{self.seed}/order/{rounds}").shuffle(order)
            cache_dirs, write_out = {}, {}
            for unit in order:
                for q in unit:
                    if hasattr(q, "argv"):
                        self.cli_query(q, rounds == 0, rounds, cache_dirs, write_out)
                    else:
                        self.fork_query(q, rounds == 0)
            for d in cache_dirs.values():
                shutil.rmtree(d, ignore_errors=True)
            rounds += 1
            now = time.perf_counter()
            if rounds >= MAX_ROUNDS:
                break
            # stop when another round would end past the budget by more
            # than half a round, so runs end near --seconds on average
            if rounds >= MIN_ROUNDS and (now - start) + 0.5 * (now - round_start) > seconds:
                break
        self.rounds = rounds

    def fastest(self):
        """Each query's fastest wall time (the per-layer figures)."""
        return {name: min(ts) for name, ts in self.times.items() if ts}

    def query_times(self):
        """Each query's time: the median of its reference-speed times."""
        return {name: statistics.median(ts) for name, ts in self.scaled.items() if ts}


def startup_seconds(workdir):
    best = None
    for _ in range(STARTUP_PROBES):
        code, _, _, wall, *_ = run_cli(["--version"], workdir)
        if code == 0:
            best = wall if best is None else min(best, wall)
    return best or 0.0


def layer_metrics(runner: Runner, queries, workdir):
    total = {}
    for snap in runner.best_trace.values():
        spans.add_into(total, snap)
    values = spans.metrics_from(total.get("spans", {}), total.get("counts", {}))
    best = runner.fastest()
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.calls"] = 0
        values[f"cli.{cmd}.s"] = 0.0
    values["cache.miss.s"] = values["cache.hit.s"] = 0.0
    for q in queries:
        if not hasattr(q, "argv") or q.name not in best:
            continue
        values[f"cli.{q.command}.calls"] += 1
        values[f"cli.{q.command}.s"] += best[q.name]
        if q.cache_role == "write":
            values["cache.miss.s"] += best[q.name]
        elif q.cache_role == "read":
            values["cache.hit.s"] += best[q.name]
    values["cli.startup.calls"] = 1
    values["cli.startup.s"] = startup_seconds(workdir)
    values["cache.files"] = runner.cache_files
    suites = dict.fromkeys(VERIFY_SUITES, 0.0)
    for q in queries:
        if getattr(q, "command", None) == "verify" and q.name in runner.best_stdout:
            for row in json.loads(runner.best_stdout[q.name])["results"]:
                if row["suite"] in suites:
                    suites[row["suite"]] += row["seconds"]
    for suite in VERIFY_SUITES:
        values[f"verify.{suite}.s"] = suites[suite]
    return {name: values[name] for name in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "modchar" / "__init__.py").is_file():
        print(f"error: no modchar sources under {src}; run from a modchar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.setup_probe:
            _, seconds = setup(args.workload, args.seed, workdir)
            print(repr(seconds))
            return 0
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def bench(args, workdir: Path) -> int:
    queries, own_setup = setup(args.workload, args.seed, workdir)
    import modchar

    if not Path(modchar.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported modchar from {modchar.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from gf import big_field

    for p in (2, 3, 5, 7):
        big_field(p)  # the checks' tables, built once before any fork
    gc.collect()
    gc.freeze()  # children then never touch the parent's objects in GC

    runner = Runner(args.seed, queries, workdir, bool(args.trace))
    runner.run(args.seconds)
    cross = load_workload(args.workload).cross_check(runner.facts)
    runner.problems += cross

    for line, count in sorted(Counter(runner.errors).items()):
        print(f"failed x{count}: {line}")
    for line in runner.problems:
        print(f"WRONG: {line}")
    times = runner.query_times()
    solve = sum(times.values())
    print(
        f"{args.workload}: {len(queries)} queries x {runner.rounds} rounds, "
        f"solve {solve:.3f} s at reference speed{' (traced)' if args.trace else ''} "
        f"(fastest wall times sum to {sum(runner.fastest().values()):.3f} s; "
        f"reference work median {statistics.median(runner.refs) * 1000:.2f} ms, nominal {calib.REF_S * 1000:g} ms), "
        f"attempted {runner.attempted}, failed {runner.failed}"
    )
    if args.trace:
        metrics = layer_metrics(runner, queries, workdir)
    else:
        setups = [own_setup] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": solve,
            "p50_ms": statistics.median(times.values()) * 1000.0,
            "peak_rss_mb": runner.peak_mb,
        }
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name) if args.trace else UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
