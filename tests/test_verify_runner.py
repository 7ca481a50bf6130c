"""verify.run: one forked helper beside the calling process, against the
in-process path it falls back to, and the random representations the
filtration suite draws.

Taken in ALL_SUITES order, the helper runs the suites at positions 0, 2,
4, ... and the caller the rest, so in ["lowest-degrees", "witnesses"]
the helper runs lowest-degrees, and in ["witnesses", "pruned"] it runs
witnesses."""

import os
import random
import threading
import time

import pytest

from modchar import cli, verify
from modchar.ff import FieldCtx, FieldError, MatrixFF

# the names that put the injected "witnesses" suite in the caller, then in the helper
SIDES = (["lowest-degrees", "witnesses"], ["witnesses", "pruned"])


def _cpus(monkeypatch, n):
    """Pretend the process may run on n CPUs (n = 1 forces in-process).
    The suites these tests inject sleep or leave with os._exit, so they
    must not run in this process by accident: no other thread is live."""
    assert threading.active_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fields(results):
    return [(r.name, r.ok, r.detail) for r in results]


def _pid_suite(name):
    """A passing suite whose detail names the process it ran in."""
    return lambda profile: verify.SuiteResult(name, True, f"pid {os.getpid()}", 0.0)


def _witness(results):
    (found,) = [r for r in results if r.name == "witnesses"]
    return found.ok, found.detail


def test_forked_and_in_process_runs_agree(monkeypatch):
    _cpus(monkeypatch, 2)
    forked = verify.run("quick")
    _no_children_left()
    _cpus(monkeypatch, 1)
    in_process = verify.run("quick")
    assert _fields(forked) == _fields(in_process)
    assert all(r.ok for r in forked)


def test_results_come_back_in_the_order_named(monkeypatch):
    _cpus(monkeypatch, 2)
    names = ["witnesses", "lowest-degrees", "arithmetic", "witnesses"]
    results = verify.run("quick", names)
    _no_children_left()
    assert [r.name for r in results] == ["witnesses", "lowest-degrees", "arithmetic", "witnesses"]
    assert all(r.ok for r in results)


def test_an_empty_list_of_names_runs_no_suite(monkeypatch):
    _cpus(monkeypatch, 2)
    assert verify.run("quick", []) == []
    _no_children_left()


@pytest.mark.parametrize("cpus, forked", [(1, False), (2, True), (64, True)])
def test_suites_run_in_workers_only_with_more_than_one_cpu(monkeypatch, cpus, forked):
    # in ALL_SUITES order arithmetic, lowest-degrees, witnesses: the helper
    # takes the first and the third, whatever the CPU count past one
    for name in ("witnesses", "lowest-degrees", "arithmetic"):
        monkeypatch.setitem(verify.ALL_SUITES, name, _pid_suite(name))
    _cpus(monkeypatch, cpus)
    results = verify.run("quick", ["witnesses", "lowest-degrees", "arithmetic"])
    _no_children_left()
    witnesses, lowest, arithmetic = (int(r.detail.removeprefix("pid ")) for r in results)
    assert lowest == os.getpid()
    assert witnesses == arithmetic
    assert (witnesses != os.getpid()) == forked


def test_one_suite_or_another_live_thread_runs_in_process(monkeypatch):
    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", _pid_suite("witnesses"))
    monkeypatch.setitem(verify.ALL_SUITES, "lowest-degrees", _pid_suite("lowest-degrees"))
    _cpus(monkeypatch, 2)
    (only,) = verify.run("quick", ["witnesses"])
    assert only.detail == f"pid {os.getpid()}"
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = verify.run("quick", ["witnesses", "lowest-degrees"])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert {r.detail for r in results} == {f"pid {os.getpid()}"}


@verify._suite("witnesses")
def _raises_value_error(profile):
    raise ValueError("injected route fault")


def _fails(profile):
    return verify.SuiteResult("witnesses", False, "injected failure", 0.0)


def _asserts(profile):
    raise AssertionError("injected invariant break")


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_suite_reads_the_same_in_a_worker(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    for names in SIDES:
        monkeypatch.setitem(verify.ALL_SUITES, "witnesses", _fails)
        assert _witness(verify.run("quick", names)) == (False, "injected failure")
        monkeypatch.setitem(verify.ALL_SUITES, "witnesses", _raises_value_error)
        assert _witness(verify.run("quick", names)) == (False, "ValueError: injected route fault")
        _no_children_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_assertion_escapes_a_worker_and_exits_4(monkeypatch, capsys, cpus):
    _cpus(monkeypatch, cpus)
    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", _asserts)
    for names in SIDES:
        with pytest.raises(AssertionError, match="^injected invariant break$"):
            verify.run("quick", names)
        _no_children_left()
        code = cli.main(["verify", "--suite", names[0], "--suite", names[1]])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL
        assert err == "internal error: injected invariant break\n"
        _no_children_left()


class _TwoArgError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_cannot_cross_the_pipe_comes_back_by_name(monkeypatch):
    _cpus(monkeypatch, 2)

    def raises(profile):
        raise _TwoArgError("left", "right")

    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", raises)
    with pytest.raises(RuntimeError, match="^_TwoArgError: left and right$"):
        verify.run("quick", ["witnesses", "pruned"])
    _no_children_left()


def test_a_worker_that_dies_without_a_result_is_an_error(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", lambda profile: os._exit(3))
    with pytest.raises(RuntimeError, match=r"'witnesses' left without a result \(exit status 3\)"):
        verify.run("quick", ["witnesses", "pruned"])
    _no_children_left()


def test_a_result_larger_than_a_pipe_buffer_comes_back_whole(monkeypatch):
    _cpus(monkeypatch, 2)
    detail = "x" * (1 << 20)
    monkeypatch.setitem(
        verify.ALL_SUITES, "witnesses", lambda p: verify.SuiteResult("witnesses", True, detail, 0.0)
    )
    results = verify.run("quick", ["witnesses", "pruned"])
    _no_children_left()
    assert results[0].detail == detail


def _kills_the_sleeping_helper(monkeypatch, raised):
    """The caller's own suite raises while the helper sleeps a minute:
    run must kill and reap the helper at once, not wait for it."""
    _cpus(monkeypatch, 2)
    monkeypatch.setitem(verify.ALL_SUITES, "arithmetic", lambda profile: time.sleep(60))

    def raises(profile):
        raise raised

    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", raises)
    start = time.monotonic()
    with pytest.raises(type(raised)):
        verify.run("quick", ["arithmetic", "witnesses"])
    assert time.monotonic() - start < 30
    _no_children_left()


def test_an_assertion_in_the_parent_kills_and_reaps_the_helper(monkeypatch):
    _kills_the_sleeping_helper(monkeypatch, AssertionError("injected invariant break"))


def test_an_interrupt_in_the_parent_kills_and_reaps_the_helper(monkeypatch):
    _kills_the_sleeping_helper(monkeypatch, KeyboardInterrupt())


def test_a_forked_run_writes_nothing_to_stdout_or_stderr(monkeypatch, capfd):
    _cpus(monkeypatch, 2)
    assert all(r.ok for r in verify.run("quick", ["lowest-degrees", "witnesses", "pruned"]))
    monkeypatch.setitem(verify.ALL_SUITES, "witnesses", _asserts)
    with pytest.raises(AssertionError):
        verify.run("quick", ["witnesses", "pruned"])
    _no_children_left()
    assert capfd.readouterr() == ("", "")


# -- random representations ---------------------------------------------------


def _invertible_by_from_coeffs(rng, ctx, dim):
    """The conjugator as random_valid_rep drew it before: every entry
    through FieldCtx.from_coeffs, singular draws drawn again."""
    p, r = ctx.p, ctx.r
    while True:
        cand = [
            [ctx.from_coeffs([rng.randrange(p) for _ in range(r)]) for _ in range(dim)]
            for _ in range(dim)
        ]
        mat = MatrixFF(ctx, cand)
        try:
            inv = mat.inverse()
        except FieldError:
            continue
        return mat, inv


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_random_valid_rep_keeps_its_draws(monkeypatch, p, r):
    ctx = FieldCtx(p, r)
    for seed in (0, 1, 97, 20260809):
        streams = []
        for conjugator in (verify._random_invertible, _invertible_by_from_coeffs):
            monkeypatch.setattr(verify, "_random_invertible", conjugator)
            rng = random.Random(seed)
            reps = [verify.random_valid_rep(rng, ctx) for _ in range(12)]
            streams.append((reps, rng.getstate()))
        assert streams[0] == streams[1]
