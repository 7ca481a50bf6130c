"""Query types and the two ways a query is answered.

Every query starts from the program's state just after import:

* a `ForkQuery` runs in a child forked from the benchmark process after
  `import modchar` and the workload's input building, and never from a
  process that answered an earlier query;
* a `CliQuery` runs `python -m modchar.cli ...` in a fresh interpreter.

The child times only the computation; the answer is then turned into
plain data and checked in the same child, outside the timed region, so
the forking process never grows and every child starts from the same
memory image.  Peak memory is the child's own `ru_maxrss`.

Every timing comes with the reference timings that bracket it
(`calib.bracket`): in the forked child itself, and in the benchmark
process around a CLI child.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import calib
from oracle import CheckFailure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
QUERY_TIMEOUT_S = 120  # no query comes near this; a hang must not outlive the run


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query ran past {QUERY_TIMEOUT_S} s")


def _wait(pid, before=None):
    """wait4 on a child (after before(), such as draining its pipe),
    killing it if it outlives QUERY_TIMEOUT_S."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(QUERY_TIMEOUT_S)
    try:
        extra = before() if before else None
        return extra, os.wait4(pid, 0)
    except QueryTimeout:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@dataclass
class ForkQuery:
    name: str
    run: Callable[[], Any]  # the timed user-level computation
    canon: Callable[[Any], Any]  # answer -> plain, deterministic data
    check: Callable[[Any, random.Random], dict]  # raises CheckFailure; returns facts


@dataclass
class CliQuery:
    name: str
    command: str  # modchar subcommand, or "startup" for --version
    argv: list
    expect_exit: int = 0
    check: Callable[[str], dict] | None = None  # stdout -> facts
    stable: bool = True  # stdout repeats byte for byte across runs
    cache_role: str | None = None  # "write" or "read" of a cached pair
    known_fault: bool = False  # malformed input the program accepts today


def digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_fork(query: ForkQuery, full_check: bool, seed: int, tracer=None):
    """Answer one query in a forked child; returns (message, peak MB)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        try:
            os.close(read_fd)
            msg = {}
            try:
                if tracer is not None:
                    tracer.REC.reset()
                (answer, msg["t"]), *msg["ref"] = calib.bracket(lambda: _timed(query.run))
                if tracer is not None:
                    msg["trace"] = tracer.REC.snapshot()
                data = query.canon(answer)
                msg["digest"] = digest(data)
                if full_check:
                    msg["facts"] = query.check(data, random.Random(f"{seed}/{query.name}")) or {}
            except CheckFailure as exc:
                msg["wrong"] = str(exc)
            except Exception:  # the program failed: report it, do not crash
                msg["error"] = traceback.format_exc(limit=4)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(msg).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        raw, (_, status, usage) = _wait(pid, fh.read)
    if not raw:
        return {"error": f"child died with status {status}"}, usage.ru_maxrss / 1024
    return json.loads(raw), usage.ru_maxrss / 1024


def child_env(extra=None):
    env = dict(os.environ)
    env.pop("MODCHAR_CACHE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    if extra:
        env.update(extra)
    return env


def run_cli(argv, workdir: Path, trace_out: Path | None = None):
    """Run modchar's CLI in a fresh interpreter.  Returns (exit code,
    stdout, stderr, wall seconds, peak MB, [reference before, after])."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "modchar.cli", *argv]
        env = child_env()
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
        env = child_env({"PERFBENCH_TRACE_OUT": str(trace_out)})
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:

        def run():
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
            return _wait(proc.pid)[1]

        ((_, status, usage), wall), *ref = calib.bracket(lambda: _timed(run))
    stdout = out_path.read_text(encoding="utf-8")
    stderr = err_path.read_text(encoding="utf-8")
    return os.waitstatus_to_exitcode(status), stdout, stderr, wall, usage.ru_maxrss / 1024, ref
