"""Multi-tenant workload model: user populations sharing one cache tier.

ROADMAP item 2's "millions of users" story (PAPERS.md: Memshare): each
user population is a **tenant** — its own file-tree namespace, its own
footprint, its own Zipf skew, its own share of the op stream.  A
``TenantLoad`` describes one population; a ``TenantMixConfig`` blends
several into a single deterministic op stream replayed against any
testbed's clients.

The namespace doubles as the cache-side tenant boundary: every IMCa key
starts with the file's absolute path (``/t/alpha/...:stat`` /
``/t/alpha/...:<offset>``, see :mod:`repro.core.keys`), so
``TenantLoad.spec()`` hands the engine-side
:class:`~repro.memcached.tenancy.TenantSpec` the same ``/t/<name>/``
prefix the workload writes under — workload attribution and arbiter
attribution agree by construction.

All randomness flows from one named stream of
:class:`~repro.sim.rand.RandomStreams`, so a mix is byte-reproducible
across processes (the ``--jobs`` equality story).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.memcached.tenancy import TenantSpec
from repro.sim.core import Simulator
from repro.sim.rand import RandomStreams
from repro.util.stats import OnlineStats
from repro.util.units import KiB


@dataclass(frozen=True)
class TenantLoad:
    """One user population's shape."""

    name: str
    #: Distinct files in this tenant's tree (footprint = num_files x
    #: file_size, the knob that makes a tenant cache-friendly or a
    #: cache-flooding scanner).
    num_files: int
    #: Zipf exponent of this tenant's file popularity (0 = uniform).
    zipf_s: float = 0.99
    #: Relative share of the blended op stream.
    weight: float = 1.0
    #: Fraction of non-stat ops that read (the rest write).
    read_ratio: float = 1.0
    #: Fraction of ops that are stats (taken off the top).
    stat_ratio: float = 0.0
    file_size: int = 8 * KiB
    record_size: int = 2 * KiB
    #: Reserved cache floor carried into :meth:`spec` (fraction of each
    #: daemon's memory guaranteed to this tenant).
    reserved_frac: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"bad tenant name {self.name!r}")
        if self.num_files < 1:
            raise ValueError(f"{self.name}: num_files must be >= 1")
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be > 0")
        if not 0 <= self.read_ratio <= 1 or not 0 <= self.stat_ratio <= 1:
            raise ValueError(f"{self.name}: ratios must be in [0, 1]")
        if self.file_size < 1 or self.record_size < 1:
            raise ValueError(f"{self.name}: sizes must be >= 1")

    def namespace(self) -> str:
        """Key prefix shared by every IMCa key this tenant touches."""
        return f"/t/{self.name}/"

    def spec(self) -> TenantSpec:
        """The engine-side tenant declaration for this population."""
        return TenantSpec(self.name, self.namespace(), self.reserved_frac)

    def file_path(self, index: int) -> str:
        return f"{self.namespace()}d{index % 32:02d}/f{index:06d}"


@dataclass(frozen=True)
class TenantMixConfig:
    """A blend of tenant populations driven as one op stream."""

    tenants: tuple[TenantLoad, ...]
    operations: int = 2000
    seed: int = 0x7E4A

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one TenantLoad")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.operations < 0:
            raise ValueError("operations must be >= 0")

    def specs(self) -> tuple[TenantSpec, ...]:
        """Engine-side tenant declarations, in mix order."""
        return tuple(t.spec() for t in self.tenants)


@dataclass
class TenantOp:
    """One replayable operation, attributed to its tenant."""

    tenant: int
    kind: str  # "read" | "write" | "stat"
    file_index: int
    offset: int
    size: int


@dataclass
class TenantPhase:
    """Per-tenant timed-phase measurements."""

    ops: int = 0
    read_latency: OnlineStats = field(default_factory=OnlineStats)
    write_latency: OnlineStats = field(default_factory=OnlineStats)
    stat_latency: OnlineStats = field(default_factory=OnlineStats)


@dataclass
class TenantMixResult:
    ops: int
    wall_time: float = 0.0
    per_tenant: dict[str, TenantPhase] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.wall_time if self.wall_time else 0.0


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-s)
    return w / w.sum()


def generate_tenant_ops(cfg: TenantMixConfig,
                        streams: Optional[RandomStreams] = None) -> list[TenantOp]:
    """Deterministically synthesise the blended operation list."""
    streams = streams or RandomStreams(cfg.seed)
    rng = streams.stream("tenants")
    weights = np.array([t.weight for t in cfg.tenants], dtype=np.float64)
    weights /= weights.sum()
    tenant_draw = rng.choice(len(cfg.tenants), size=cfg.operations, p=weights)
    # Per-tenant popularity as cumulative weights; one uniform draw per
    # op indexes into its tenant's CDF (cheaper than per-op rng.choice).
    cdfs = [np.cumsum(_zipf_weights(t.num_files, t.zipf_s)) for t in cfg.tenants]
    file_draw = rng.random(cfg.operations)
    offset_draw = rng.random(cfg.operations)
    kind_draw = rng.random(cfg.operations)
    ops: list[TenantOp] = []
    for i in range(cfg.operations):
        ti = int(tenant_draw[i])
        t = cfg.tenants[ti]
        f = int(np.searchsorted(cdfs[ti], file_draw[i], side="right"))
        f = min(f, t.num_files - 1)
        records = max(1, t.file_size // t.record_size)
        offset = int(offset_draw[i] * records) * t.record_size
        size = min(t.record_size, t.file_size - offset)
        draw = kind_draw[i]
        if draw < t.stat_ratio:
            kind = "stat"
        elif draw < t.stat_ratio + (1 - t.stat_ratio) * t.read_ratio:
            kind = "read"
        else:
            kind = "write"
        ops.append(TenantOp(tenant=ti, kind=kind, file_index=f, offset=offset, size=size))
    return ops


def prepare_tenant_files(sim: Simulator, client: Any, cfg: TenantMixConfig) -> Generator:
    """Untimed setup: create every tenant's tree at full size."""
    for t in cfg.tenants:
        for i in range(t.num_files):
            fd = yield from client.create(t.file_path(i))
            if t.file_size:
                yield from client.write(fd, 0, t.file_size)
            yield from client.close(fd)


def replay_tenant_mix(
    sim: Simulator,
    clients: Sequence[Any],
    cfg: TenantMixConfig,
    *,
    setup: bool = True,
    warmup: bool = True,
    on_timed_start: Optional[Callable[[], None]] = None,
) -> TenantMixResult:
    """Replay the blended stream round-robin over *clients*.

    Mirrors :func:`~repro.workloads.trace.replay_trace`: untimed setup,
    one untimed pre-open per (client, file) so purge-on-open churn
    happens before measurement, an optional untimed warm pass (which is
    also where the arbiter observes misses and starts steering memory),
    then the timed pass recording per-tenant latencies.

    The warm pass replays the *first half* of a ``2 x operations``
    stream and the timed pass the second half — never the same ops
    twice.  An exact replay would turn every tenant into a perfect
    loop (each evicted key re-referenced on schedule one pass later),
    which inflates shadow-LRU ghost hits for exactly the tenants whose
    re-references should be improbable.

    *on_timed_start* fires between the warm and timed passes — the spot
    to snapshot cache-side counters so measured deltas cover exactly the
    timed pass.
    """
    n = cfg.operations
    full = TenantMixConfig(cfg.tenants, operations=2 * n if warmup else n,
                           seed=cfg.seed)
    stream = generate_tenant_ops(full)
    warm_ops, ops = stream[:-n] if n else stream, stream[len(stream) - n:]
    if setup:
        p = sim.process(prepare_tenant_files(sim, clients[0], cfg))
        sim.run(until=p)
    result = TenantMixResult(ops=len(ops))
    for t in cfg.tenants:
        result.per_tenant[t.name] = TenantPhase()

    def opener(client):
        fds = {}
        for ti, t in enumerate(cfg.tenants):
            for i in range(t.num_files):
                fds[(ti, i)] = yield from client.open(t.file_path(i))
        return fds

    fd_tables = []
    for client in clients:
        p = sim.process(opener(client))
        sim.run(until=p)
        fd_tables.append(p.value)

    def partition(op_list: list[TenantOp]) -> list[list[TenantOp]]:
        parts: list[list[TenantOp]] = [[] for _ in clients]
        for i, op in enumerate(op_list):
            parts[i % len(clients)].append(op)
        return parts

    per_client_warm = partition(warm_ops)
    per_client_ops = partition(ops)

    def worker(client, fds, my_ops, record: bool):
        for op in my_ops:
            t = cfg.tenants[op.tenant]
            phase = result.per_tenant[t.name]
            t0 = sim.now
            if op.kind == "stat":
                yield from client.stat(t.file_path(op.file_index))
                if record:
                    phase.stat_latency.add(sim.now - t0)
            elif op.kind == "read":
                yield from client.read(fds[(op.tenant, op.file_index)], op.offset, op.size)
                if record:
                    phase.read_latency.add(sim.now - t0)
            else:
                yield from client.write(fds[(op.tenant, op.file_index)], op.offset, op.size)
                if record:
                    phase.write_latency.add(sim.now - t0)
            if record:
                phase.ops += 1

    if warmup:
        procs = [
            sim.process(worker(c, fd_tables[i], per_client_warm[i], False))
            for i, c in enumerate(clients)
        ]
        sim.run(until=sim.all_of(procs))

    if on_timed_start is not None:
        on_timed_start()
    start = sim.now
    procs = [
        sim.process(worker(c, fd_tables[i], per_client_ops[i], True), name=f"tenant-{i}")
        for i, c in enumerate(clients)
    ]
    sim.run(until=sim.all_of(procs))
    result.wall_time = sim.now - start
    return result
