"""A reference clock that cancels the host's speed out of pass times.

On a shared host the same pass runs at different speeds at different
times: the CPU alternates between a fast and a slow state every few
milliseconds, and the share of time spent in each drifts from one minute
to the next, so two runs of identical inputs can differ by a third in
wall time.  Process CPU time moves with it.

While a pass runs, ``RefClock`` times a fixed piece of Fraction work from
a SIGALRM handler every ``PERIOD_S`` seconds, so its samples fall in the
same moments as the program's own work.  A time divided by the mean
sample time follows the program's speed and not the host's; multiplied
by the fixed ``NOMINAL_SAMPLE_S`` it reads as seconds on a host of one
fixed speed.  The time spent in the handler is kept apart, so it can be
taken out of the set-up, pass and step times.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.008
# Nominal time of one reference sample: a time measured under the clock
# is rescaled to a host on which one sample takes this long.
NOMINAL_SAMPLE_S = 100e-6

# A 4-point table of exact distances, fixed at import.
_TABLE = {(i, j): Fraction((i * 7 + j * 3) % 11, 16) for i in range(4) for j in range(4)}


def reference() -> Fraction:
    """Fixed work like metrika's own: triangle-style sums over a dict of
    Fractions.  Of the loops tried (bigint sums, plain int table scans,
    this one), this one's samples followed the passes' speed best."""
    worst = Fraction(0)
    t = _TABLE
    for i in range(4):
        for j in range(4):
            gap = t[i, 0] - t[i, j] - t[j, 0]
            if gap > worst:
                worst = gap
    return worst


class RefClock:
    """Context manager: samples `reference` every `period_s` while open."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, to subtract from timings
        self._previous = None

    def _sample(self, *_):
        # A collection would scan the program's heap and tie the sample to
        # its size; the first, untimed call warms the caches the program
        # left cold.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        timed = perf_counter()
        reference()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - timed)
        self.spent += end - start

    def __enter__(self) -> "RefClock":
        self._sample()  # a span shorter than the period still gets a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit(self) -> float:
        """Mean seconds of one reference sample while the clock was open."""
        return statistics.fmean(self.samples)

    def scaled(self, seconds: float) -> float:
        """`seconds` measured while the clock was open, as they would read
        on a host where one sample takes NOMINAL_SAMPLE_S."""
        return scale(seconds, self.unit())


def scale(seconds: float, unit: float) -> float:
    """`seconds` measured while one reference sample took `unit` seconds,
    rescaled to a host where it takes NOMINAL_SAMPLE_S."""
    return seconds * NOMINAL_SAMPLE_S / unit
