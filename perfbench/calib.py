"""Host-speed reference: a fixed piece of the benchmark's own work.

This host's speed swings by up to 1.9x in phases that last from seconds
to minutes, longer than a run, so no number of repetitions makes raw
wall times repeat from run to run.  Each timed query is therefore
bracketed by this reference work, timed in the same process, and its
time is reported in reference-speed seconds:

    scaled = wall * REF_S / mean(reference before, reference after)

The reference is pure-Python work of the kind modchar does (a sparse
polynomial product in dicts of exponent tuples, and row reduction of a
list-of-lists matrix over F_5).  It never calls modchar, so a change to
the program moves the query's time and leaves the reference alone.  It
runs with the cyclic garbage collector off, so the program's GC state
does not reach it either.
"""

from __future__ import annotations

import gc
import time

# The reference work's nominal time: a scaled second is the time the
# host takes for 1 / REF_S rounds of the reference work.
REF_S = 0.005


def reference_work():
    a = {(i, j, (i * j) % 5): (i + 2 * j) % 7 + 1 for i in range(12) for j in range(12)}
    b = {(i, j, i % 3): (3 * i + j) % 7 + 1 for i in range(8) for j in range(8)}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = (out.get(e, 0) + ca * cb) % 7
    x, m = 1, []
    for _ in range(32):
        row = []
        for _ in range(32):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append((x >> 16) % 5)
        m.append(row)
    rank = 0
    for col in range(32):
        piv = next((r for r in range(rank, 32) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], 3, 5)
        m[rank] = [v * inv % 5 for v in m[rank]]
        for r in range(32):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(v - f * w) % 5 for v, w in zip(m[r], m[rank])]
        rank += 1
    return len(out), rank


def timed() -> float:
    """Seconds the reference work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def bracket(measure):
    """Run measure() between two reference timings, after a warm-up one
    (a freshly forked process pays its first page faults there).
    Returns (measure's result, reference seconds before, after)."""
    timed()
    before = timed()
    result = measure()
    return result, before, timed()


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * REF_S * 2 / (before + after)
