"""The machine's speed, measured between queries, and times scaled by it.

The benchmark's machine shares its cores with other machines' work, and
the speed a core gives one process drifts by 15-40% over seconds to
minutes (IQR/median of the loop time of identical work over ten runs on
a 2-vCPU VM).  A fixed piece of stdlib work, the calibration, is timed
between queries at least every ``GAP_S`` seconds.  Each query's time is
then scaled by ``REF_MS`` over the mean calibration time within
``WINDOW_S`` of the query: it reads as the time the query takes when the
calibration takes ``REF_MS``.  The speed switches between a fast and a
slow level within a run, so the window is short, and a mean, which
weighs the two levels by the time spent in each, tracked the queries'
times better than a median or one figure per run did.  The calibration runs no cyclolab code, so
a change to the package moves the scaled times as much as the raw ones.
Garbage collection is off while it runs, so the package's heap does not
slow it.
"""
from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The calibration's time on the 2-vCPU VM where the benchmark was defined,
# when nothing else slowed its core (1.95-2.1 ms; 3.1-3.6 ms when slowed):
# scaled times read as that machine's times when it is not slowed.
REF_MS = 2.0
GAP_S = 0.05
WINDOW_S = 0.25


def calibrate() -> float:
    """Seconds taken by a fixed mix of Fraction arithmetic, big-integer
    reduction and list and dict building, about REF_MS."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = Fraction(1)
        table = {}
        for i in range(1, 300):
            x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
            x = Fraction(x.numerator % 10**30 + 1, x.denominator % 10**30 + 1)
            table[i] = [j * j for j in range(20)]
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """REF_MS over the mean of calibration times given in seconds."""
    return REF_MS / (statistics.fmean(samples) * 1000.0)


class Speedometer:
    """Calibrations taken during a loop, as (time, seconds) pairs."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0  # loop time taken by the calibrations
        calibrate()  # untimed: the first call pays for warming up

    def tick(self, force: bool = False):
        """Calibrate if GAP_S has passed since the last calibration."""
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= GAP_S:
            took = calibrate()
            self.times.append(now)
            self.samples.append(took)
            self.spent += perf_counter() - now

    def factor(self, start: float, end: float) -> float:
        """The scale for a query that ran from ``start`` to ``end``."""
        i = bisect.bisect_left(self.times, start - WINDOW_S)
        j = bisect.bisect_right(self.times, end + WINDOW_S)
        return scale(self.samples[i:j] or self.samples)
