"""Host-speed probe: converts a sample's timings to seconds at a fixed speed.

The benchmark host is a small share of a shared machine.  The CPU a sample
runs on slows down by up to about 2x when the machine is busy, and such
phases come and go within seconds or last for minutes, so a run's median
wall time moves by a quarter from one run to the next with no change in the
program.  A second CPU does not slow down with the first, so the speed has
to be measured where the sample runs.

``SpeedProbe`` does that from inside the sample process: a timer signal
runs a fixed pure-Python loop (the probe) every ``PERIOD_S`` between the
program's bytecodes and records how long it took.  The probe adds
``Fraction``s, the kind of work that takes most of protolab's time: a slow
phase slows it about as much as the workloads, where a plain integer loop
slowed down less and left about 10% of a phase in the scaled times.

``scaled(a, b)`` gives the seconds the interval [a, b] of ``perf_counter``
would have taken at the speed where the probe takes ``NOMINAL_PROBE_S``:
the interval is cut into windows of at most ``WINDOW_S`` and each window is
weighted by ``NOMINAL_PROBE_S`` over the median probe near it.  Medians
keep a probe that an interrupt lengthened from counting.

The probes take 1-2% of the sample's time, which the scaled times
include.  Work that does not slow down with the probe (waiting on a disk or
on another process) is over-corrected; the benchmark has none.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
PROBE_TERMS = 30
# The probe's median duration on an unloaded 2-vCPU Intel Xeon VM under
# CPython 3; scaled times are seconds on that host.
NOMINAL_PROBE_S = 100e-6
WINDOW_S = 0.25
MIN_PROBES = 5


class SpeedProbe:
    """Times a fixed loop every ``PERIOD_S`` from a SIGALRM handler."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        t = perf_counter()
        above = 0
        for i in range(1, PROBE_TERMS):
            if Fraction(i, i + 3) + Fraction(3, i + 7) > 1:
                above += 1
        self.durations.append(perf_counter() - t)
        self.starts.append(t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_at(self, t: float) -> float:
        """Median probe duration in a window around ``t``, widened until it
        holds ``MIN_PROBES`` probes or every probe."""
        if not self.starts:
            raise RuntimeError("the speed probe recorded nothing")
        half = WINDOW_S / 2
        while True:
            i = bisect.bisect_left(self.starts, t - half)
            j = bisect.bisect_right(self.starts, t + half)
            if j - i >= MIN_PROBES or (i == 0 and j == len(self.starts)):
                return statistics.median(self.durations[i:j])
            half *= 2

    def scaled(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] takes at the nominal probe speed."""
        n = max(1, math.ceil((b - a) / WINDOW_S))
        step = (b - a) / n
        return sum(step * NOMINAL_PROBE_S / self.probe_at(a + (k + 0.5) * step)
                   for k in range(n))

    def median_us(self) -> float:
        return 1e6 * statistics.median(self.durations)
