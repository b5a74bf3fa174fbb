"""Host-speed reference for normalising measured times.

On a host shared with other tenants the CPU runs the same code up to twice as
slowly for stretches of seconds to minutes, and process CPU time moves with
wall time. `reference()` is a fixed piece of pure-Python work (tuple, dict,
set and frozenset traffic, like the interpreter work of `hdpl`) that the
benchmark times next to the workload. A measured time multiplied by
`REF_S / <measured reference time>` is the time the same work takes when the
reference runs at its nominal speed, so two runs compare the program and not
the host's load at the time. The reference is part of the benchmark, not of
`hdpl`, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time

# nominal seconds of one `reference()` call: about its time on the 2-core x86
# VM the benchmark was defined on, in that host's fast stretches
REF_S = 0.0003


def reference() -> int:
    d: dict = {}
    s: set = set()
    acc = 0
    for i in range(1000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        if i % 5 == 0:
            s.add(frozenset((i % 31, i % 17)))
        acc += len(k)
    return acc + len(d) + len(s)


def quantum() -> float:
    """Seconds taken by one `reference()` call, timed right after an untimed
    one, so that what ran before (caches, branch history) does not count."""
    reference()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def speed_factor(quanta: list[float]) -> float:
    """REF_S over the median of some reference timings: multiply a time
    measured next to them by this to normalise it."""
    return REF_S / statistics.median(quanta)
