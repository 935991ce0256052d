"""Synthetic data-center trace generation and replay.

The paper's motivation is the data-center world: "In data-center
environments a large number of small files are used" (§3, citing the
multi-tier data-center studies).  No production trace ships with the
paper, so this module synthesises the closest standard equivalent:
Zipf-popularity file accesses with a configurable read/write mix and
log-normal-ish file sizes, generated from the deterministic named RNG
streams (:mod:`repro.sim.rand`).

Replay drives any testbed's clients and reports hit rates and latency
— the substrate for the ``motivation-trace`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from repro.sim.core import Simulator
from repro.sim.rand import RandomStreams
from repro.util.stats import OnlineStats
from repro.util.units import KiB

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TraceConfig:
    """Shape of the synthetic workload."""

    num_files: int = 256
    #: Zipf exponent for file popularity (~0.8-1.2 in web studies).
    zipf_s: float = 0.99
    #: Fraction of operations that read (the rest write).
    read_ratio: float = 0.9
    #: Fraction of operations that are stats (taken off the top).
    stat_ratio: float = 0.2
    #: File sizes are drawn from these (weights uniform): data centers
    #: skew small (§3).
    size_choices: tuple[int, ...] = (1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB)
    #: I/O granularity within a file.
    record_size: int = 2 * KiB
    operations: int = 1000
    seed: int = 0xDA7A

    def __post_init__(self) -> None:
        if not 0 <= self.read_ratio <= 1:
            raise ValueError("read_ratio must be in [0, 1]")
        if not 0 <= self.stat_ratio <= 1:
            raise ValueError("stat_ratio must be in [0, 1]")
        if self.num_files < 1 or self.operations < 0:
            raise ValueError("num_files >= 1 and operations >= 0 required")


@dataclass
class TraceOp:
    """One replayable operation."""

    kind: str  # "read" | "write" | "stat"
    file_index: int
    offset: int
    size: int


@dataclass
class TraceResult:
    ops: int
    wall_time: float = 0.0
    read_latency: OnlineStats = field(default_factory=OnlineStats)
    write_latency: OnlineStats = field(default_factory=OnlineStats)
    stat_latency: OnlineStats = field(default_factory=OnlineStats)

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.wall_time if self.wall_time else 0.0


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Zipf(*s*) popularity of ranks 1..*n*, normalised to sum to 1."""
    import numpy as np

    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-s)
    return w / w.sum()


def generate_trace(cfg: TraceConfig, streams: Optional[RandomStreams] = None) -> list[TraceOp]:
    """Deterministically synthesise the operation list."""
    streams = streams or RandomStreams(cfg.seed)
    rng = streams.stream("trace")
    weights = zipf_weights(cfg.num_files, cfg.zipf_s)
    file_sizes = rng.choice(cfg.size_choices, size=cfg.num_files)
    files = rng.choice(cfg.num_files, size=cfg.operations, p=weights)
    kinds_draw = rng.random(cfg.operations)
    ops: list[TraceOp] = []
    for i in range(cfg.operations):
        f = int(files[i])
        fsize = int(file_sizes[f])
        records = max(1, fsize // cfg.record_size)
        offset = int(rng.integers(0, records)) * cfg.record_size
        size = min(cfg.record_size, fsize - offset)
        draw = kinds_draw[i]
        if draw < cfg.stat_ratio:
            kind = "stat"
        elif draw < cfg.stat_ratio + (1 - cfg.stat_ratio) * cfg.read_ratio:
            kind = "read"
        else:
            kind = "write"
        ops.append(TraceOp(kind=kind, file_index=f, offset=offset, size=size))
    return ops


def file_path(index: int) -> str:
    return f"/trace/d{index % 32:02d}/f{index:06d}"


def prepare_files(sim: Simulator, client: Any, cfg: TraceConfig) -> Generator:
    """Untimed setup: create every file at its full size."""
    streams = RandomStreams(cfg.seed)
    rng = streams.stream("trace")
    file_sizes = rng.choice(cfg.size_choices, size=cfg.num_files)
    for i in range(cfg.num_files):
        fd = yield from client.create(file_path(i))
        fsize = int(file_sizes[i])
        if fsize:
            yield from client.write(fd, 0, fsize)
        yield from client.close(fd)


def replay_trace(
    sim: Simulator,
    clients: Sequence[Any],
    cfg: TraceConfig,
    *,
    warmup: bool = True,
) -> TraceResult:
    """Replay the trace round-robin over *clients*; returns latencies.

    With *warmup* the trace runs once untimed first — opens purge the
    cache bank, so the timed replay measures the steady-state service a
    data-center deployment would actually run.
    """
    ops = generate_trace(cfg)
    p = sim.process(prepare_files(sim, clients[0], cfg))
    sim.run(until=p)
    result = TraceResult(ops=len(ops))
    start = sim.now

    # Pre-open every file once per client (fd table), untimed.
    def opener(client):
        fds = {}
        for i in range(cfg.num_files):
            fds[i] = yield from client.open(file_path(i))
        return fds

    fd_tables = []
    for client in clients:
        p = sim.process(opener(client))
        sim.run(until=p)
        fd_tables.append(p.value)

    per_client_ops: list[list[TraceOp]] = [[] for _ in clients]
    for i, op in enumerate(ops):
        per_client_ops[i % len(clients)].append(op)

    def worker(client, fds, my_ops, record: bool):
        for op in my_ops:
            t0 = sim.now
            if op.kind == "stat":
                yield from client.stat(file_path(op.file_index))
                if record:
                    result.stat_latency.add(sim.now - t0)
            elif op.kind == "read":
                yield from client.read(fds[op.file_index], op.offset, op.size)
                if record:
                    result.read_latency.add(sim.now - t0)
            else:
                yield from client.write(fds[op.file_index], op.offset, op.size)
                if record:
                    result.write_latency.add(sim.now - t0)

    if warmup:
        procs = [
            sim.process(worker(c, fd_tables[i], per_client_ops[i], False))
            for i, c in enumerate(clients)
        ]
        sim.run(until=sim.all_of(procs))
        start = sim.now

    procs = [
        sim.process(worker(c, fd_tables[i], per_client_ops[i], True), name=f"trace-{i}")
        for i, c in enumerate(clients)
    ]
    sim.run(until=sim.all_of(procs))
    result.wall_time = sim.now - start
    return result
