"""A fixed reference computation that scales host times to one machine speed.

On a shared host the speed of the same code drifts by a fifth or more over
minutes, and by as much within seconds, and every host time drifts with it.
A benchmark time is therefore taken as the median of the twin's own runs,
each scaled by the reference loop timed just before and just after it:

    scaled = median(run_i * REF_SECONDS / mean(ref_i, ref_i+1))

The loop is pure integer arithmetic that builds no containers, so the
twin's heap and garbage collector do not change its time.  It does not call
metrotwin, so a change to the twin cannot move it.
"""

from __future__ import annotations

import statistics
import time

# Host seconds of one reference loop on the 2-core sandbox where the
# baseline was taken; it only sets the scale of the reported numbers.
REF_SECONDS = 0.05
_ITERATIONS = 600_000


def reference_seconds() -> float:
    """Host seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scaled(times: list[float], ref_times: list[float]) -> float:
    """Median of ``times``, scaled to a machine where the loop takes REF_SECONDS.

    ``ref_times`` has one more entry than ``times``: ``times[i]`` was taken
    between ``ref_times[i]`` and ``ref_times[i + 1]``.
    """
    assert len(ref_times) == len(times) + 1
    return statistics.median(
        t * REF_SECONDS / ((before + after) / 2)
        for t, before, after in zip(times, ref_times, ref_times[1:]))
