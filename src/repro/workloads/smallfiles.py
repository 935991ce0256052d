"""Small-file workload (§3 "Performance For Small Files").

"Delivering good performance for small files is generally difficult.
In data-center environments a large number of small files are used.
Data striping techniques generally used in parallel file system are of
limited use for small files."

Stage 1 (untimed): create N small files and write their contents; all
clients open every file (IMCa purges on Open — §4.3.2 — so opens happen
before the timed phase, as a long-running data-center service would
hold its working set open).
Stage 2 (timed): every client stats + reads every file whole, in a
per-client shifted order.  Reports per-file latency and aggregate wall
time — a metadata-and-small-IO stress where IMCa's block + stat cache
shine and striping does nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from repro.sim.core import Simulator
from repro.sim.sync import Barrier
from repro.util.stats import OnlineStats
from repro.util.units import KiB


@dataclass
class SmallFilesResult:
    num_files: int
    file_size: int
    num_clients: int
    wall_time: float = 0.0
    #: open+read+close latency per file, pooled over clients.
    per_file_latency: OnlineStats = field(default_factory=OnlineStats)

    @property
    def files_per_second(self) -> float:
        total = self.num_files * self.num_clients
        return total / self.wall_time if self.wall_time else 0.0


def _path(i: int) -> str:
    return f"/smallfiles/d{i % 16:02d}/f{i:06d}"


def run_small_files(
    sim: Simulator,
    clients: Sequence[Any],
    num_files: int = 256,
    file_size: int = 4 * KiB,
) -> SmallFilesResult:
    def creator(client):
        for i in range(num_files):
            fd = yield from client.create(_path(i))
            yield from client.write(fd, 0, file_size)
            yield from client.close(fd)

    p = sim.process(creator(clients[0]))
    sim.run(until=p)

    result = SmallFilesResult(
        num_files=num_files, file_size=file_size, num_clients=len(clients)
    )
    barrier = Barrier(sim, len(clients))
    marks: dict[str, float] = {}

    def reader(client, rank) -> Generator:
        # Open the working set (untimed; §4.3.2 opens purge cached
        # blocks, so they all land before the measured phase).
        fds = {}
        for i in range(num_files):
            fds[i] = yield from client.open(_path(i))
        yield barrier.wait()
        if rank == 0:
            # Untimed warm pass: a steady-state service's working set is
            # resident; the timed phase measures that regime.
            for i in range(num_files):
                yield from client.read(fds[i], 0, file_size)
        yield barrier.wait()
        if rank == 0:
            marks["t0"] = sim.now
        shift = (rank * num_files) // max(1, len(clients))
        for i in range(num_files):
            idx = (i + shift) % num_files
            t0 = sim.now
            yield from client.stat(_path(idx))
            yield from client.read(fds[idx], 0, file_size)
            result.per_file_latency.add(sim.now - t0)
        yield barrier.wait()
        if rank == 0:
            marks["t1"] = sim.now
        for fd in fds.values():
            yield from client.close(fd)

    procs = [
        sim.process(reader(c, rank), name=f"smallfiles-{rank}")
        for rank, c in enumerate(clients)
    ]
    sim.run(until=sim.all_of(procs))
    result.wall_time = marks["t1"] - marks["t0"]
    return result
