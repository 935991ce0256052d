"""Fixed kernel benchmarks: the ``kernel``, ``hop`` and ``sweep`` points.

Each benchmark builds a fresh deterministic simulation, runs it to
completion, and reports throughput as *scheduled events per wall-clock
second* (``Simulator`` seeds every scheduled event with a sequence
number, so the event count is exact and identical across runs — only
the wall time varies).  Medians over k rounds absorb scheduler noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.net.fabric import Network, Node
from repro.net.profiles import profile
from repro.sim.core import Simulator
from repro.sim.station import FifoStation

#: Frozen workload sizes.  Changing these invalidates the trajectory.
KERNEL_PROCS = 64
KERNEL_ITERS = 1200
HOP_SENDERS = 16
HOP_MSGS = 1500
HOP_SIZE = 4096
SWEEP_EXPERIMENT = "fig6a"
SWEEP_SCALE = "smoke"

DEFAULT_ROUNDS = 5
QUICK_ROUNDS = 3


@dataclass
class BenchResult:
    """One benchmark's outcome: median-of-k plus the raw rounds."""

    name: str
    metric: str  # "events_per_sec" or "seconds"
    median: float
    runs: list[float] = field(default_factory=list)
    events_per_run: Optional[int] = None

    def to_dict(self) -> dict:
        doc = {
            "metric": self.metric,
            "median": self.median,
            "runs": self.runs,
        }
        if self.events_per_run is not None:
            doc["events_per_run"] = self.events_per_run
        return doc


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# --------------------------------------------------------------------------- #
# workloads (frozen)
# --------------------------------------------------------------------------- #
def _kernel_workload() -> int:
    """Bare DES kernel: station reservations and process resumes only.

    Returns the number of scheduled events.
    """
    sim = Simulator()
    # Measure the unobserved configuration (what experiment runs pay).
    sim.track_station_waits = False
    station = FifoStation(sim, servers=4, name="bench")

    def worker(k: int):
        service = 1e-6 + (k % 7) * 1e-7
        for _ in range(KERNEL_ITERS):
            yield station.run(service)

    for k in range(KERNEL_PROCS):
        sim.process(worker(k), name=f"w{k}")
    sim.run()
    return sim._seq


def _hop_workload() -> int:
    """Five-station network hop: senders hammering one receiver."""
    sim = Simulator()
    sim.track_station_waits = False
    net = Network(sim, profile("ipoib"))
    src = Node(sim, "bench-src")
    dst = Node(sim, "bench-dst")
    net.attach(src)
    net.attach(dst)

    def sender(k: int):
        for _ in range(HOP_MSGS):
            yield net.transfer(src, dst, HOP_SIZE)

    for k in range(HOP_SENDERS):
        sim.process(sender(k), name=f"s{k}")
    sim.run()
    return sim._seq


def _time_events(workload) -> tuple[int, float]:
    t0 = time.perf_counter()
    events = workload()
    return events, time.perf_counter() - t0


def bench_kernel(rounds: int) -> BenchResult:
    runs = []
    events = 0
    for _ in range(rounds):
        events, elapsed = _time_events(_kernel_workload)
        runs.append(events / elapsed)
    return BenchResult("kernel", "events_per_sec", _median(runs), runs, events)


def bench_hop(rounds: int) -> BenchResult:
    runs = []
    events = 0
    for _ in range(rounds):
        events, elapsed = _time_events(_hop_workload)
        runs.append(events / elapsed)
    return BenchResult("hop", "events_per_sec", _median(runs), runs, events)


def bench_sweep(rounds: int) -> BenchResult:
    """A fixed fig6-style harness sweep, timed end to end (seconds)."""
    from repro.harness import get

    exp = get(SWEEP_EXPERIMENT)
    runs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        exp.run(SWEEP_SCALE)
        runs.append(time.perf_counter() - t0)
    return BenchResult("sweep", "seconds", _median(runs), runs)


def kernel_results(quick: bool = False, rounds: Optional[int] = None) -> list[BenchResult]:
    """The kernel points; ``quick`` drops the harness sweep and uses
    fewer rounds (workload sizes never change, so quick and full
    events/sec are directly comparable)."""
    k = rounds if rounds is not None else (QUICK_ROUNDS if quick else DEFAULT_ROUNDS)
    results = [bench_kernel(k), bench_hop(k)]
    if not quick:
        results.append(bench_sweep(k))
    return results
