"""Host-speed calibration for the benchmark's time metrics.

On a shared virtual machine (2 vCPUs of a Xeon whose cores other tenants
use too) the simulator's speed changes by up to 2x over seconds to
minutes, and process CPU time drifts with wall time, so raw host seconds
of two runs minutes apart differ by more than any useful regression
bound.  A fixed pure-Python kernel, shaped like the simulator's hot loop
(slotted objects, method calls, a heap of tuples), is timed right before
every simulation, and each time metric is reported in reference seconds:

    reference_s = host_s / (mean(kernel samples) / REFERENCE_S) ** ELASTICITY

The kernel slows down more than the simulator when the host does: over
10-30 s windows on that machine, log simulator time against log kernel
time has slope 0.75-0.77 at correlation 0.97-0.997, and dividing by the
kernel's relative time to that power cut the spread (interquartile range
over median) of simulator time across 10 s windows from 21% to 3%.  The kernel is part of the benchmark, never of the program,
so a change to the program moves reference seconds exactly as it moves
host seconds; only host speed cancels.  Raw host seconds are printed
beside every calibrated figure.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

#: Host seconds of one kernel sample at reference speed.
REFERENCE_S = 0.0017
#: Measured slope of log simulator time against log kernel time.
ELASTICITY = 0.75


class _Core:
    __slots__ = ("mhz", "busy", "load")

    def __init__(self) -> None:
        self.mhz = 1000
        self.busy = 0
        self.load = 0.0

    def step(self, target: int) -> int:
        if target > self.mhz:
            self.mhz = min(self.mhz + 100, target)
        elif target < self.mhz:
            self.mhz = max(self.mhz - 100, target)
        self.load = self.load * 0.97 + (1.0 if self.busy else 0.0)
        return self.mhz


def _kernel(n: int = 1500) -> int:
    cores = [_Core() for _ in range(32)]
    queue: List[tuple] = []
    acc = 0
    for i in range(n):
        core = cores[(i * 13) % 32]
        core.busy = (i >> 3) & 1
        acc += core.step(1000 + (i * 37) % 2800)
        heapq.heappush(queue, (i + (i * 7) % 50, i, core))
        if len(queue) > 48:
            heapq.heappop(queue)
    return acc


def sample() -> float:
    """Host seconds of one run of the calibration kernel (garbage
    collection off: it would time the caller's heap, not the host)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def slowness(samples: List[float]) -> float:
    """Divide host seconds measured beside ``samples`` by this to get
    reference seconds."""
    return (sum(samples) / len(samples) / REFERENCE_S) ** ELASTICITY
