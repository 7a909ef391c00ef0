"""Fixed reference work that measures how fast the machine runs now.

The 2-vCPU VM the benchmark was defined on runs up to 40 % faster in
some minutes than in others (CPU time moves with wall time, so it is
not steal).  A median over one run's units cannot remove a drift that
lasts longer than the run, so runs of the same code at different times
disagree by more than any useful bound.

One calibration round is a fixed amount of work that does not touch the
program — a heap-driven loop over dicts and floats, like the schedulers'
event loops, and a few numpy passes, like the energy sweeps — and the
harness times a few rounds before every timed unit and after the last
one.  A unit's time divided by the median round of those before and
after it is the unit's cost in rounds; multiplied by
``REFERENCE_ROUND_S`` it reads in *reference seconds*: the seconds the
unit takes on a machine on which one round takes 30 ms (that VM's
typical figure).
A change to the program moves the unit and not the round, so it shows
in full; a change of machine speed moves both and cancels.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Seconds one round takes on the reference machine.
REFERENCE_ROUND_S = 0.030

_HEAP_STEPS = 20000
_HEAP_WIDTH = 64
_ARRAY = 20000
_ARRAY_PASSES = 20


def _round() -> int:
    # A fixed linear congruential stream: no dependence on ``random``'s
    # implementation, the same work in every round and on every seed.
    x, heap, acc = 12345, [], {}
    for i in range(_HEAP_STEPS):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x / 2147483648.0, i))
        if len(heap) > _HEAP_WIDTH:
            p, j = heapq.heappop(heap)
            acc[j & 511] = acc.get(j & 511, 0.0) + 1.5 * p
    a = np.arange(_ARRAY, dtype=float)
    for _ in range(_ARRAY_PASSES):
        a = np.sqrt(a * 1.0001 + 1.0)
    return len(sorted(acc.values())) + int(a[-1] > 0)


def rounds_s(rounds: int) -> list:
    """Wall seconds of each of ``rounds`` calibration rounds."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        _round()
        times.append(time.perf_counter() - t0)
    return times


def beside_units(before: list) -> list:
    """Median round beside each unit, from the rounds timed before
    every unit and, last, after the last unit."""
    return [statistics.median(a + b) for a, b in zip(before, before[1:])]


def to_reference(seconds: float, round_seconds: float) -> float:
    """``seconds`` measured beside ``round_seconds``, in reference seconds."""
    return seconds * REFERENCE_ROUND_S / round_seconds
