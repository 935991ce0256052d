"""The five frozen workloads and the closed-loop driver that runs them.

Everything here goes through the public client API only:
``build_gluster_testbed`` / ``TestbedConfig`` / ``IMCaConfig()`` at the
paper's defaults (no opt-in knob is set, so promoting an optimisation
to the default path is what moves the numbers) and
``GlusterClient.create/open/read/write/stat/close``.

A *segment* is a fixed number of operations per simulated client.  The
loop is closed: a client issues its next operation when the previous
one completes.  Inputs are drawn from ``random.Random`` streams seeded
from ``--seed``; the system under test only ever sees the generated
paths, offsets and payloads.

The driver keeps a shadow ``bytearray`` per file and compares every
byte a read returns and every size a stat returns against it.

The sizes below are frozen: changing one invalidates every number
recorded against this benchmark.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, replace
from typing import Generator, Optional

from repro import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.util.units import KiB, MiB

READ, STAT, WRITE, OPEN, CLOSE = range(5)
KIND_NAMES = ("read", "stat", "write", "open", "close")

#: One planned operation: (kind, file index, offset, size, payload).
Op = tuple
#: One completed operation: (kind, sim start, sim end, result size, ok).
Rec = tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why this workload exists (one line; mirrored in BENCHMARK.json).
    why: str
    #: "read" (random reads of files held open), "stat" (random stats)
    #: or "session" (open, six mixed ops, close on client-owned files).
    shape: str
    clients: int
    mcds: int
    mcd_memory: int
    files: int
    file_size: int
    op_size: int
    #: Operations (sessions for "session") per client per segment.
    per_client: int
    #: Server page-cache budget; ``None`` keeps the testbed default.
    server_cache_bytes: Optional[int] = None

    def testbed_config(self) -> TestbedConfig:
        cfg = TestbedConfig(
            num_clients=self.clients,
            num_mcds=self.mcds,
            mcd_memory=self.mcd_memory,
            imca=IMCaConfig(),
        )
        if self.server_cache_bytes is not None:
            cfg.server_cache_bytes = self.server_cache_bytes
        return cfg

    def quick(self) -> "Workload":
        """A small copy for the smoke test: same shape and layers, a
        fraction of the files and operations.  Its numbers mean nothing."""
        return replace(
            self,
            files=max(self.clients, self.files // 8),
            per_client=max(2, self.per_client // 8),
        )


#: Data operations between the open and the close of one session.
SESSION_OPS = 6
#: Cumulative draw thresholds of a session's data operations.
SESSION_WRITE_SHARE = 0.40
SESSION_STAT_SHARE = 0.15

WORKLOADS = (
    Workload(
        name="read_hit",
        why="Warm 16 KiB reads, working set inside the MCD bank: the paper's "
        "headline cached read; core, memcached, net and sim do all the work.",
        shape="read", clients=8, mcds=4, mcd_memory=256 * MiB,
        files=256, file_size=64 * KiB, op_size=16 * KiB, per_client=400,
    ),
    Workload(
        name="stat_storm",
        why="256 clients stat 1,024 warmed files: Fig 5's metadata case, the "
        "smallest op, so per-event sim cost and fixed per-RPC cost dominate.",
        shape="stat", clients=256, mcds=4, mcd_memory=256 * MiB,
        files=1024, file_size=1 * KiB, op_size=0, per_client=50,
    ),
    Workload(
        name="read_miss",
        why="Working set 8x the MCD bank and 4x the page cache: capacity misses, "
        "SMCache pushes and slab eviction; oscache and storage set latency.",
        shape="read", clients=8, mcds=4, mcd_memory=4 * MiB,
        files=2048, file_size=64 * KiB, op_size=16 * KiB, per_client=160,
        server_cache_bytes=32 * MiB,
    ),
    Workload(
        name="nocache_read",
        why="read_miss's traffic with num_mcds=0 (the paper's NoCache): bypasses "
        "the whole cache tier, so cache-tier changes must not move it.",
        shape="read", clients=8, mcds=0, mcd_memory=4 * MiB,
        files=2048, file_size=64 * KiB, op_size=16 * KiB, per_client=1600,
        server_cache_bytes=32 * MiB,
    ),
    Workload(
        name="write_mix",
        why="open, six 4 KiB ops (40% write, 15% stat, 45% read), close: writes, "
        "read-back, pushes and purges, so a read gain that costs writes shows.",
        shape="session", clients=8, mcds=4, mcd_memory=256 * MiB,
        files=256, file_size=32 * KiB, op_size=4 * KiB, per_client=70,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def payload(seed: int, file: int, ordinal: int, size: int) -> bytes:
    """Content of write number *ordinal* to *file* (0 = initial fill).
    Position-dependent, so a block served from the wrong offset fails
    the output check."""
    return random.Random(f"{seed}/{file}/{ordinal}").randbytes(size)


class Bench:
    """One workload on one freshly built testbed."""

    def __init__(self, workload: Workload, seed: int, obs=None) -> None:
        self.wl = workload
        self.seed = seed
        self.tb = build_gluster_testbed(workload.testbed_config(), obs=obs)
        self.paths = [f"/perf/{workload.name}/f{i:04d}" for i in range(workload.files)]
        self.shadow = [
            bytearray(payload(seed, i, 0, workload.file_size))
            for i in range(workload.files)
        ]
        self._write_ordinal = [0] * workload.files
        #: Per client: file index -> open fd.
        self._fds: list[dict[int, int]] = [{} for _ in range(workload.clients)]
        self._rngs = [
            random.Random(f"{seed}/{workload.name}/client{rank}")
            for rank in range(workload.clients)
        ]
        #: Traceback of the first operation that raised, for the report.
        self.first_error: Optional[str] = None

    # -- set-up --------------------------------------------------------------
    def setup(self) -> None:
        """Create the files, then bring the caches to the workload's
        steady state (cache statistics start after this)."""
        wl = self.wl
        self._parallel(self._create)
        if wl.shape == "read":
            # Every open purges the file's cached blocks, so all opens
            # come before the first warming read.
            self._parallel(self._open_all)
            self._parallel(self._warm)
        elif wl.shape == "stat":
            self._parallel(self._warm)

    def _parallel(self, body) -> None:
        sim = self.tb.sim
        procs = [sim.process(body(rank)) for rank in range(self.wl.clients)]
        sim.run(until=sim.all_of(procs))

    def _owned(self, rank: int) -> range:
        """Files a client creates and warms.  "session" clients own a
        contiguous block, so content never depends on cross-client timing."""
        wl = self.wl
        if wl.shape == "session":
            share = wl.files // wl.clients
            return range(rank * share, (rank + 1) * share)
        return range(rank, wl.files, wl.clients)

    def _create(self, rank: int) -> Generator:
        client = self.tb.clients[rank]
        for f in self._owned(rank):
            fd = yield from client.create(self.paths[f])
            yield from client.write(fd, 0, self.wl.file_size, bytes(self.shadow[f]))
            yield from client.close(fd)

    def _open_all(self, rank: int) -> Generator:
        client = self.tb.clients[rank]
        fds = self._fds[rank]
        for f, path in enumerate(self.paths):
            fds[f] = yield from client.open(path)

    def _warm(self, rank: int) -> Generator:
        client = self.tb.clients[rank]
        for f in self._owned(rank):
            yield from client.stat(self.paths[f])
            if self.wl.shape == "read":
                yield from client.read(self._fds[rank][f], 0, self.wl.file_size)

    # -- one segment -----------------------------------------------------------
    def plan_segment(self) -> list[list[Op]]:
        """Draw the next segment's operations for every client."""
        return [self._plan_client(rank) for rank in range(self.wl.clients)]

    def _plan_client(self, rank: int) -> list[Op]:
        wl = self.wl
        rng = self._rngs[rank]
        ops: list[Op] = []
        if wl.shape == "stat":
            for _ in range(wl.per_client):
                ops.append((STAT, rng.randrange(wl.files), 0, 0, None))
        elif wl.shape == "read":
            slots = wl.file_size // wl.op_size
            for _ in range(wl.per_client):
                f = rng.randrange(wl.files)
                ops.append((READ, f, rng.randrange(slots) * wl.op_size, wl.op_size, None))
        else:
            owned = self._owned(rank)
            slots = wl.file_size // wl.op_size
            for _ in range(wl.per_client):
                f = owned[rng.randrange(len(owned))]
                ops.append((OPEN, f, 0, 0, None))
                for _ in range(SESSION_OPS):
                    draw = rng.random()
                    off = rng.randrange(slots) * wl.op_size
                    if draw < SESSION_WRITE_SHARE:
                        self._write_ordinal[f] += 1
                        data = payload(self.seed, f, self._write_ordinal[f], wl.op_size)
                        ops.append((WRITE, f, off, wl.op_size, data))
                    elif draw < SESSION_WRITE_SHARE + SESSION_STAT_SHARE:
                        ops.append((STAT, f, 0, 0, None))
                    else:
                        ops.append((READ, f, off, wl.op_size, None))
                ops.append((CLOSE, f, 0, 0, None))
        return ops

    def run_segment(self, plans: list[list[Op]]) -> list[list[Rec]]:
        """Run one planned segment to completion; returns, per client,
        one record per operation in issue order."""
        sim = self.tb.sim
        recs: list[list[Rec]] = [[] for _ in plans]
        procs = [
            sim.process(self._client(rank, plan, recs[rank]), name=f"perf-c{rank}")
            for rank, plan in enumerate(plans)
        ]
        sim.run(until=sim.all_of(procs))
        return recs

    def _client(self, rank: int, plan: list[Op], recs: list[Rec]) -> Generator:
        client = self.tb.clients[rank]
        sim = self.tb.sim
        fds = self._fds[rank]
        paths = self.paths
        shadow = self.shadow
        for kind, f, off, size, data in plan:
            start = sim.now
            got = 0
            try:
                if kind == READ:
                    res = yield from client.read(fds[f], off, size)
                    got = res.size
                    ok = res.data == shadow[f][off : off + size]
                elif kind == STAT:
                    st = yield from client.stat(paths[f])
                    got = st.size
                    ok = got == len(shadow[f])
                elif kind == WRITE:
                    yield from client.write(fds[f], off, size, data)
                    shadow[f][off : off + size] = data
                    got = size
                    ok = True
                elif kind == OPEN:
                    fds[f] = yield from client.open(paths[f])
                    ok = True
                else:
                    yield from client.close(fds.pop(f))
                    ok = True
            except Exception:  # any failing op is counted, never fatal
                ok = False
                if self.first_error is None:
                    self.first_error = traceback.format_exc()
            recs.append((kind, start, sim.now, got, ok))

    def corrupt_shadow(self, plans: list[list[Op]]) -> None:
        """Self-test hook: flip one shadow byte that the planned segment
        is certain to read, so the output check must report a failure."""
        for plan in plans:
            for kind, f, off, _size, _data in plan:
                if kind == READ:
                    self.shadow[f][off] ^= 0xFF
                    return
        raise RuntimeError("no read in the planned segment to corrupt")
