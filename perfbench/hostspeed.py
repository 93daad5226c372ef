"""Host-speed sampling for untraced runs.

On a shared 2-vCPU VM the host switches between speeds up to about 2x
apart and stays in one for seconds to minutes, so raw times of two runs of
the same code differ by more than any useful regression bound, however
many passes a run takes.  ``HostSpeed`` measures that speed while the
workload runs: every ``INTERVAL_S`` of wall time a SIGALRM handler runs a
fixed pure-Python reference kernel and records its thread CPU time.

The harness reads time from ``clock_ns()``, which stands still while the
kernel runs, and scales each interval it reports by the host speed over
that interval: ``scaled_ns(start, end)`` multiplies its length by the mean
of ``REFERENCE_NS`` / kernel time over the samples taken inside it, or over
the ``MIN_SAMPLES`` nearest its middle when fewer fall inside.  A reported
time is thus the time the same work would take on a host where one kernel
round takes ``REFERENCE_NS``.  Short intervals are scaled by the speed next
to them because the host can switch state within a quarter of a second.
The raw times are kept in the run's detail line.

The kernel's CPU time, not its wall time, is used, and the garbage
collector is off while it runs, so that neither a thread left running by
the code under test nor the size of its heap can make the host look slower
and the code faster.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.1
MIN_SAMPLES = 2
# Kernel CPU time in the fast state of a 2-vCPU x86-64 VM with CPython 3.11.
REFERENCE_NS = 2_000_000


def kernel() -> int:
    """Dict updates, then tuple hashing into a set over small tables: the
    kinds of work fslat's group and algebra code does.  It keeps under
    100 KB alive, so that sampling does not show in ``peak_rss_mb``."""
    counts: dict[int, int] = {}
    for i in range(10000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    total = len(counts)
    for r in range(4):
        table = [[(i + j * r) % 29 for j in range(29)] for i in range(29)]
        seen = set()
        for i, row in enumerate(table):
            for x in row:
                seen.add((i, x))
        total += len(seen)
    return total


class HostSpeed:
    """Context manager: samples host speed from SIGALRM while it is open."""

    def __init__(self):
        self.at: list[int] = []
        self.samples: list[int] = []
        self.spent_ns = 0

    def _sample(self, signum=None, frame=None) -> None:
        wall = time.perf_counter_ns()
        collecting = gc.isenabled()
        gc.disable()
        cpu = time.thread_time_ns()
        kernel()
        self.samples.append(time.thread_time_ns() - cpu)
        self.at.append(wall - self.spent_ns)
        if collecting:
            gc.enable()
        self.spent_ns += time.perf_counter_ns() - wall

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock_ns(self) -> int:
        """perf_counter_ns() less the time spent sampling."""
        while True:
            spent = self.spent_ns
            now = time.perf_counter_ns()
            if spent == self.spent_ns:
                return now - spent

    def factor(self, start: int, end: int) -> float:
        """Mean host speed relative to the reference host between two
        ``clock_ns()`` readings."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        if hi - lo < MIN_SAMPLES:
            middle = bisect_left(self.at, (start + end) // 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.fmean(REFERENCE_NS / s for s in self.samples[lo:hi])

    def scaled_ns(self, start: int, end: int, length: int | None = None) -> float:
        """``length`` (by default ``end - start``) at the reference speed,
        using the host speed between ``start`` and ``end``."""
        return (end - start if length is None else length) * self.factor(start, end)


class RawClock:
    """Stand-in for HostSpeed that samples nothing and scales nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    clock_ns = staticmethod(time.perf_counter_ns)

    @staticmethod
    def scaled_ns(start: int, end: int, length: int | None = None) -> float:
        return end - start if length is None else length
