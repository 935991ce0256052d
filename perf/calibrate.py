"""Host-speed calibration loop (standard library only; frozen).

The benchmark runs on shared boxes whose speed drifts by tens of per
cent between runs.  Dividing every timed span by the speed of an
adjacent, fixed, pure-Python loop removes most of that drift: the loop
does what the simulator's hot path does (heap push/pop, generator
``send``, dict store), so the two slow down together.

A *calibrated second* is the time the host needs for
:data:`CAL_SECOND_ITERS` iterations of the loop — about one wall-clock
second on the box the benchmark was sized on.

This module must not import anything from ``repro``: a change to the
system under test may never change the yardstick.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Iterations that define one calibrated second.
CAL_SECOND_ITERS = 2_000_000

#: Iterations of one calibration sample (about 0.1 s).
SAMPLE_ITERS = 200_000

#: Two adjacent samples further apart than this (relative to the smaller)
#: mean the host's speed changed during the span between them.
MAX_DRIFT = 0.15


def _echo():
    value = None
    while True:
        value = yield value


def sample(iters: int = SAMPLE_ITERS) -> float:
    """Run the calibration loop once; returns iterations per second."""
    heap = sorted(((i * 7919) % 1013 * 1e-6, -i) for i in range(512))
    store: dict[int, float] = {}
    gen = _echo()
    next(gen)
    send = gen.send
    start = time.perf_counter()
    for i in range(iters):
        heappush(heap, ((i * 7919) % 1013 * 1e-6, i))
        when, _ = heappop(heap)
        store[i & 1023] = send(when)
    elapsed = time.perf_counter() - start
    gen.close()
    return iters / elapsed


def drift(before: float, after: float) -> float:
    """Relative disagreement of two adjacent samples."""
    return abs(before - after) / min(before, after)


def calibrated_seconds(raw_seconds: float, before: float, after: float) -> float:
    """Convert a wall-clock span to calibrated seconds using the
    samples taken immediately before and after it."""
    return raw_seconds * (before + after) / 2 / CAL_SECOND_ITERS
