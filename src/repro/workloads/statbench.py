"""The stat benchmark (§5.2).

"In the first stage (untimed), a set of 262144 files is created.  In
the second stage (timed) of the benchmark, each of the nodes tries to
perform a stat operation on each of the 262144 files.  The total time
required to complete all 262144 stats is collected from each of the
nodes and the maximum time among all of them is reported."

``num_files`` scales down for simulation cost; the contention shape is
set by clients x per-op cost, not the absolute file count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from repro.sim.core import Simulator
from repro.sim.sync import Barrier
from repro.util.stats import OnlineStats


@dataclass
class StatBenchResult:
    num_files: int
    num_clients: int
    #: The paper's reported number: max over nodes of total stat time.
    max_node_time: float = 0.0
    #: Per-node totals and pooled per-op latency for analysis.
    node_times: list[float] = field(default_factory=list)
    op_latency: OnlineStats = field(default_factory=OnlineStats)


def _file_path(i: int) -> str:
    # Spread over directories like a real dataset would.
    return f"/statbench/d{i % 64:02d}/f{i:08d}"


def create_files(sim: Simulator, client: Any, num_files: int) -> Generator:
    """Stage 1 (untimed): create the file set through one client."""
    for i in range(num_files):
        fd = yield from client.create(_file_path(i))
        yield from client.close(fd)


def run_stat_bench(
    sim: Simulator,
    clients: Sequence[Any],
    num_files: int,
) -> StatBenchResult:
    """Run both stages; returns the paper's max-over-nodes metric."""
    p = sim.process(create_files(sim, clients[0], num_files))
    sim.run(until=p)

    result = StatBenchResult(num_files=num_files, num_clients=len(clients), node_times=[0.0] * len(clients))
    barrier = Barrier(sim, len(clients))

    def node_proc(client: Any, rank: int) -> Generator:
        yield barrier.wait()
        t0 = sim.now
        # Each node starts at a different point of the file sequence.
        # Real clients drift apart naturally; a deterministic simulator
        # would otherwise keep all nodes in lockstep on the same file
        # (and therefore the same MCD) at every instant.
        shift = (rank * num_files) // max(1, len(clients))
        for i in range(num_files):
            op_start = sim.now
            yield from client.stat(_file_path((i + shift) % num_files))
            result.op_latency.add(sim.now - op_start)
        result.node_times[rank] = sim.now - t0

    procs = [sim.process(node_proc(c, r), name=f"stat-rank{r}") for r, c in enumerate(clients)]
    sim.run(until=sim.all_of(procs))
    result.max_node_time = max(result.node_times)
    return result
