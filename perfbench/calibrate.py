"""A fixed reference computation that measures the host's current speed.

The host this benchmark was built on runs the same pure-Python code up to
1.8x slower in some 100 ms windows than in others, and the share of slow
windows drifts over minutes.  ``reference_ms()`` times a fixed piece
of graph code from ``checks.py`` (the exhaustive 3-connectivity test and a
GF(2) rank on a 16-rung prism): breadth-first search, sets, dictionaries
and integer bitmasks, the same kinds of work as the library's.  The worker
samples it between operations, and ``run.py`` divides every operation's
time by the speed sampled around it (see ``scaled_times`` there).
"""

from __future__ import annotations

import gc
from time import perf_counter

from checks import Host, fundamental_cycles, gf2_rank, is_simple_3_connected

RUNGS = 16
_EDGES = [[i, (i + 1) % RUNGS] for i in range(RUNGS)]
_EDGES += [[RUNGS + i, RUNGS + (i + 1) % RUNGS] for i in range(RUNGS)]
_EDGES += [[i, RUNGS + i] for i in range(RUNGS)]
_HOST = Host(range(2 * RUNGS), _EDGES)


# Times are scaled to a host that runs the reference in this many ms (about
# its median on the 2-core host the benchmark was built on).
REF_MS = 2.5
# Sample the reference for this share of the time just measured.
SHARE = 0.15
MAX_SAMPLES = 40


def reference_ms() -> float:
    """One timing of the reference, with the garbage collector off, so that
    the size of the library's heap does not change what it measures."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        ok = is_simple_3_connected(_HOST.vertices, _HOST.psi)
        rank = gf2_rank(fundamental_cycles(_HOST))
        elapsed = (perf_counter() - start) * 1000
    finally:
        if was_enabled:
            gc.enable()
    if not ok or rank != _HOST.dimension:
        raise AssertionError("reference computation gave a wrong answer")
    return elapsed


def reference_samples(measured_ms: float) -> list[float]:
    """Timings of the reference taken back to back for about ``SHARE`` of
    ``measured_ms``: at least one, at most ``MAX_SAMPLES``."""
    samples = [reference_ms()]
    while sum(samples) < SHARE * measured_ms and len(samples) < MAX_SAMPLES:
        samples.append(reference_ms())
    return samples
