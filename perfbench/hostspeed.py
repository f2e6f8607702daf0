"""Host-speed normalization.

This host's speed changes by up to 1.7x within seconds (CPU time tracks
wall time, so the program is not waiting; the processor itself runs
slower). A run that lands in a slow stretch would read as a regression
of the program. To keep the figures comparable across runs, the
benchmark times a fixed calibration kernel, which uses no code of the
program, at short intervals during the measured phase, and scales each
wall time by the kernel's reference time over its time in that
stretch. A normalized time is the wall time the same work would have
taken at the reference host speed; the raw wall times are printed too.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: the calibration kernel's time at the reference host speed. Any
#: constant would do (it only fixes the scale); this one is about the
#: kernel's time on the 2-core development host in its fast state.
REFERENCE_S = 0.00040

#: calibration samples averaged for one speed estimate.
WINDOW = 3


def _kernel() -> float:
    """Fixed interpreter and small-array numpy work, like the program's
    hot paths (about 0.4 ms)."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(800):
        total += i * 0.5
        table[i & 63] = total
    grid = np.linspace(0.1, 1.0, 96)
    for _ in range(40):
        step = np.cumsum(np.diff(grid) * grid[1:])
        grid = grid + 1e-9 * step[-1]
    return total


class HostSpeed:
    """Calibration samples over time, and the slowdown they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        #: seconds spent calibrating so far, to take out of timed phases.
        self.total_s = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.durations.append(end - start)
        self.total_s += end - start

    def slowdown_at(self, when: float) -> float:
        """Slowdown (>1 is slower than reference) around time ``when``:
        the mean of the ``WINDOW`` samples nearest to it."""
        i = bisect.bisect_left(self.times, when)
        lo = max(0, i - (WINDOW + 1) // 2)
        chunk = self.durations[lo : lo + WINDOW]
        return statistics.fmean(chunk) / REFERENCE_S

    def slowdown_between(self, start: float, end: float) -> float:
        """Mean slowdown of the samples taken in ``[start, end]`` (the
        nearest ones when there are none)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < WINDOW:
            return self.slowdown_at((start + end) / 2.0)
        return statistics.fmean(self.durations[lo:hi]) / REFERENCE_S
