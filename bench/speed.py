"""Query time normalised to the interpreter's speed at the moment it ran.

On a shared machine the same Python loop runs up to 1.6 times slower for
seconds at a time while other tenants load the cores; that drift swamps
any change to the program.  SpeedMeter runs a fixed reference loop every
PERIOD seconds from a SIGALRM handler on the benchmark's own thread and
keeps each loop's duration.  normalised() then scales an interval's wall
time (minus the sampler's own time) by REFERENCE / duration, averaged
over the samples in and around the interval: the result is the time the
interval would have taken at the speed where the reference loop takes
REFERENCE seconds.  The loop mixes dict lookups, tuple unpacking and list
appends because it tracks the engines' slowdowns better than arithmetic.
"""
from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.02
REFERENCE = 250e-6  # seconds the reference loop takes at the reference speed
_TABLE = {i: (i, i + 1) for i in range(64)}


def _reference_loop() -> None:
    out = []
    table = _TABLE
    for i in range(1500):
        a, b = table[i & 63]
        out.append((a + b, i))
        if len(out) > 32:
            out.clear()


class SpeedMeter:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised(self, start: float, end: float) -> float:
        """Seconds [start, end) would take at the reference speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[i:j])
        # the samples inside the interval plus one on each side, so that
        # intervals shorter than PERIOD still get a speed estimate
        around = self.durations[max(i - 1, 0):j + 1]
        if not around:
            raise RuntimeError("no speed sample near the interval")
        factor = sum(REFERENCE / d for d in around) / len(around)
        return (end - start - own) * factor
