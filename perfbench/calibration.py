"""The host's speed, measured by a fixed kernel timed between operations.

The benchmark runs on a shared host whose speed changes by up to ~1.7x
for a few seconds to minutes at a time, with other tenants' load.  A
whole run can fall in a slow stretch, so even the best of a run's
operations moved by a quarter between runs.  The workloads therefore time
this kernel before each operation, and scale each cycle's times by the
kernel's mean time in that cycle (:func:`scaled`): a time then reads as it
would on a host where the kernel takes :data:`REFERENCE_S`.  The kernel
is the benchmark's own code, not the program's, so a change to the
program moves the scaled times as it moves the raw ones.

The kernel mixes what the program's hot paths do: NumPy arithmetic on
4,096-point grids driven from a Python loop (the quadrature in
``queueing.distributions``), and a pure-Python event queue of small
objects (the simulator).  The slow stretches slow the interpreter more
than vectorised code: on five minutes of paper dashboards, scaling by
either half alone left a spread of 0.09 between 30 s windows, by both
0.05, against 0.26 unscaled.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections.abc import Sequence

import numpy as np

#: The kernel's time on a quiet 2-vCPU Intel Xeon at 2.0 GHz, rounded
#: (measured 9-11 ms there), so scaled times read close to raw ones.
REFERENCE_S = 0.010
#: Kernel samples a set-up probe or a daemon's start takes beforehand.
SAMPLES_PER_PROBE = 3

_GRID = np.linspace(0.0, 16.0, 4096)


class _Event:
    __slots__ = ("at", "kind", "node")

    def __init__(self, at: float, kind: int, node: int) -> None:
        self.at, self.kind, self.node = at, kind, node

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def kernel_seconds() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    start = time.perf_counter()
    total = 0.0
    for step in range(120):
        density = _GRID ** (step % 12) * np.exp(-_GRID)
        total += float(np.cumsum(density)[-1])
    queue: list[_Event] = []
    load: dict[int, float] = {}
    x = 0.5
    for i in range(4000):
        x = 3.9 * x * (1.0 - x)
        heapq.heappush(queue, _Event(100.0 * x, i % 3, i % 17))
        if len(queue) > 64:
            event = heapq.heappop(queue)
            load[event.node] = load.get(event.node, 0.0) + event.at * (1 + event.kind)
    elapsed = time.perf_counter() - start
    if not (total > 0.0 and load):
        raise RuntimeError("reference kernel computed nothing")
    return elapsed


def scaled(seconds: float, kernel: Sequence[float]) -> float:
    """``seconds`` as they would read on the reference host.

    ``kernel`` holds the kernel times measured alongside ``seconds``.
    """
    if not kernel:
        raise ValueError("no kernel samples")
    return seconds * REFERENCE_S / statistics.fmean(kernel)
