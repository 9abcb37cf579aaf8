"""Timing at a fixed reference speed of the machine.

The benchmark runs on small shared machines whose speed swings by a half
and more with the load of their neighbours, for seconds at a time: the
same pure-Python loop takes anywhere from 0.29 s to 0.51 s from one run
to the next.  A fixed probe, a few milliseconds of the same kind of work
the program does (interpreted arithmetic and small integer NumPy ops), is
timed every ``EVERY_S`` seconds between items.  Each measured interval is
then scaled by ``PROBE_REF_S`` over the mean of the probes just before
and just after it, which reads it as it would have taken on the machine
at the probe's reference speed.  The raw wall times are reported beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# The probe's duration on an unloaded 2-core x86-64 machine (Python
# 3.11, NumPy 2.4); it only fixes the scale of the reported times.
PROBE_REF_S = 0.0014
EVERY_S = 0.05

_A = np.arange(64, dtype=np.int64).reshape(8, 8)


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(80):
        b = (_A @ _A) % 5
        b[b.nonzero()[0][:1]] = 0
    return time.perf_counter() - start


class ReferenceClock:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._next = 0.0
        probe()  # the first call pays for NumPy's lazy set-up

    def tick(self) -> None:
        """Probe if the last probe is more than EVERY_S old."""
        now = time.perf_counter()
        if now >= self._next:
            self.at.append(now)
            self.took.append(probe())
            self._next = time.perf_counter() + EVERY_S

    def close(self) -> None:
        """A last probe, so every interval has one after it."""
        self._next = 0.0
        self.tick()

    def scale(self, start: float, seconds: float) -> float:
        """An interval that began at ``start``, at the reference speed."""
        k = bisect.bisect_right(self.at, start)
        before = self.took[max(k - 1, 0)]
        after = self.took[min(k, len(self.took) - 1)]
        return seconds * PROBE_REF_S / (0.5 * (before + after))
