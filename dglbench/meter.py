"""Host-speed normalisation of wall-clock measurements.

Measured work runs in short windows.  After each window the frozen
reference kernel (:mod:`refkernel`) runs once and its time is recorded.
A window's raw seconds are converted to nominal-host seconds by

    nominal = raw * NOMINAL_REF_S / ref

where ``ref`` is the median kernel time over the window's neighbourhood
(the kernel run after it and up to two on either side).  A host that runs
20% slow for a while slows the workload and the kernel alike, so the
product stays put; the median keeps one interrupted kernel run from
skewing a window.

Windows close after a fixed number of operations, not after a fixed
time, so a given seed puts the same operations in the same windows on
every run.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Callable, List, Sequence, Tuple

from refkernel import EXPECTED_CHECKSUM, NOMINAL_REF_S, reference_kernel

#: kernel runs on either side of a window that share in its reference time
NEIGHBOURS = 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class HostMeter:
    """Windows of measured work, each followed by one kernel run."""

    def __init__(self, ops_per_window: int) -> None:
        self.ops_per_window = ops_per_window
        #: raw seconds of each closed window (kernel time excluded)
        self.windows: List[float] = []
        #: raw seconds of the kernel run that closed each window
        self.kernels: List[float] = []
        #: (window index, raw seconds) per operation sample
        self.samples: List[Tuple[int, float]] = []
        self._opened = time.perf_counter()
        self._ops = 0

    def open(self) -> None:
        """Start the next window now (after untimed work between windows)."""
        self._opened = time.perf_counter()
        self._ops = 0

    def sample(self, seconds: float) -> None:
        """Record one operation's raw time; may close the window."""
        self.samples.append((len(self.windows), seconds))
        self._ops += 1
        if self._ops >= self.ops_per_window:
            self.close()

    def close(self) -> None:
        """End the current window and run the kernel after it."""
        self.windows.append(time.perf_counter() - self._opened)
        # A collection the program's garbage happens to trigger inside the
        # kernel would be charged to the host; it runs after instead.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            checksum = reference_kernel()
            self.kernels.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        if checksum != EXPECTED_CHECKSUM:
            raise RuntimeError(f"reference kernel checksum {checksum} != {EXPECTED_CHECKSUM}")
        self.open()

    def finish(self) -> None:
        """Close a partly filled last window."""
        if self._ops:
            self.close()

    def piece(self, fn: Callable[[], None]) -> int:
        """Run ``fn`` as one window of its own; return the window's index."""
        self.open()
        fn()
        self.close()
        return len(self.windows) - 1

    # -- results ---------------------------------------------------------

    def ratios(self) -> List[float]:
        """Per-window factor from raw to nominal-host seconds."""
        k = self.kernels
        return [
            NOMINAL_REF_S / statistics.median(k[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1])
            for i in range(len(k))
        ]

    def nominal_samples(self) -> List[float]:
        r = self.ratios()
        return [seconds * r[w] for w, seconds in self.samples]

    def raw_samples(self) -> List[float]:
        return [seconds for _w, seconds in self.samples]

    def nominal_window_total(self, indices: Sequence[int]) -> float:
        r = self.ratios()
        return sum(self.windows[i] * r[i] for i in indices)

    def nominal_total(self) -> float:
        return self.nominal_window_total(range(len(self.windows)))

    def raw_total(self) -> float:
        return sum(self.windows)

    def median_ratio(self) -> float:
        return statistics.median(self.ratios())
