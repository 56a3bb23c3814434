"""Host-speed calibration: timings scaled to a reference speed of the machine.

On a shared virtual machine the speed at which one Python thread runs
drifts by up to 2x within a minute, and process CPU time drifts with wall
time, so neither clock alone compares two runs.  The benchmark therefore
times a fixed pure-Python kernel, which calls no toolkit code, between
instances, and reports every interval as

    wall time * REFERENCE_KERNEL_S / (median kernel time of the probes around it)

The result reads in seconds at the speed at which the kernel takes
REFERENCE_KERNEL_S.  A change to the toolkit moves it as it moves wall
time; a slower or faster host moves the kernel as much, and drops out.
Probes run only between toolkit calls: a kernel that interrupts a call
(from a timer signal) runs 5-10% slower and varies more, because it
finds the caches full of the toolkit's data.
"""

from __future__ import annotations

import gc
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_KERNEL_S = 0.001  # about the kernel's time on a quiet reference host
PROBE_INTERVAL_S = 0.2  # at most one probe this often
PROBE_RUNS = 3  # kernel runs per probe; the probe keeps their median
WINDOW_S = 1.0  # probes this far before an interval's start and after its end count
MIN_PROBES = 3  # if fewer fall in the window, the nearest ones are used


def kernel() -> int:
    """Fixed interpreter work of the toolkit's kind: tuple-keyed tables, small objects, sorting."""
    n = 40
    table = {(a, b): (a * b) % 7 for a in range(n) for b in range(n)}
    total = 0
    for a in range(n):
        total += min(table[a, b] + table[b, a] for b in range(n))
    groups: dict[int, list] = {}
    for i in range(1200):
        groups.setdefault((i * 31) % 97, []).append((i, i & 7))
    for _, members in sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0])):
        total += members[-1][0]
    return total


class HostSpeed:
    """Probes of the kernel over one run, and the scale factor they give an interval."""

    def __init__(self):
        self.stamps = array("d")  # midpoint of each probe, perf_counter seconds
        self.kernel_s = array("d")

    def probe(self) -> None:
        runs = []
        enabled = gc.isenabled()
        gc.disable()  # the kernel must not pay for the toolkit's garbage
        try:
            start = perf_counter()
            for _ in range(PROBE_RUNS):
                t0 = perf_counter()
                kernel()
                runs.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.stamps.append((start + perf_counter()) / 2)
        self.kernel_s.append(statistics.median(runs))

    def maybe_probe(self) -> None:
        if not self.stamps or perf_counter() - self.stamps[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_KERNEL_S over the median kernel time of the probes around [t0, t1]."""
        lo = bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect_right(self.stamps, t1 + WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = bisect_left(self.stamps, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.stamps) - MIN_PROBES))
            hi = min(len(self.stamps), lo + MIN_PROBES)
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] in seconds at the reference speed."""
        return (t1 - t0) * self.scale(t0, t1)
