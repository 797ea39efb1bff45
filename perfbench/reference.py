"""Reference speed: a fixed standard-library loop timed alongside the tasks.

The benchmark runs on a few cores of a shared host.  For seconds to minutes
at a time the same Python code runs up to about twice as slow there, and
process CPU time slows with it (the host takes no time away from the process;
the core itself is slower), so neither wall time nor CPU time repeats from
run to run.

Every ``INTERVAL_S`` seconds, between tasks and outside their timed calls,
the measuring process times one ``reference_loop`` (exact ``Fraction`` sums:
the same kind of interpreted, allocation-heavy work the package does, and no
code of the package).  The host's speed changes within a fraction of a
second, so frequent single loops track it better than rarer medians of
several.  A task's *normalised* time is its wall time scaled by
``REF_LOOP_S`` over the loop's time measured just before and just after it:
the time the task would take on a core that runs the loop in ``REF_LOOP_S``.  A program change that does more or less work moves it as it
moves wall time; a slower or faster host does not.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# Nominal time of one reference loop: the scale of normalised times.  About
# what the loop takes on an unloaded 2-vCPU Xeon VM with Python 3.11.
REF_LOOP_S = 0.0005
INTERVAL_S = 0.02


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return total


def loop_seconds(repeats: int = 1) -> float:
    """Median time of ``repeats`` reference loops."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Reference-loop samples over a run, and the scale factor they give."""

    def __init__(self):
        self.at: list[float] = []
        self.loop_s: list[float] = []

    def sample(self) -> None:
        self.at.append(perf_counter())
        self.loop_s.append(loop_seconds())

    def maybe_sample(self) -> None:
        """Sample when ``INTERVAL_S`` has passed since the last sample."""
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``REF_LOOP_S`` over the loop time around the interval [start, end].

        Averages the last sample taken before ``start`` and the first taken
        after ``end``; call ``sample`` once more after the last task.
        """
        before = max(0, bisect.bisect_right(self.at, start) - 1)
        after = min(len(self.at) - 1, bisect.bisect_left(self.at, end))
        return REF_LOOP_S / ((self.loop_s[before] + self.loop_s[after]) / 2)

    def pass_factor(self, start: float) -> float:
        """``REF_LOOP_S`` over the median loop time of the samples since ``start``."""
        first = bisect.bisect_left(self.at, start)
        return REF_LOOP_S / statistics.median(self.loop_s[first:])

    def median_loop_s(self) -> float:
        return statistics.median(self.loop_s)
