"""The verified-workload kit shared by the feature experiments.

Every feature job (chaos, hotspot, readpath, elastic, tenants, fastpath)
repeats the paper's measurement recipe (§5.4): size a testbed from the
scale's parameter dict, lay down files of known contents, optionally arm
faults, drive timed ops while checking every returned byte and stat
size, and fold the outcome into a row.  Those steps are written once
here; an experiment module keeps only what differs — which files, which
op order, which checks.  A job is a module-level picklable function
``job(p, ..., obs=None)``; its instrumented pass is the same job called
in-process with a :func:`~repro.obs.context.make_observability` bundle.
"""

from __future__ import annotations

import hashlib
import math
from typing import Generator, Iterable, Optional, Sequence

from repro.cluster import ResilienceConfig, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.localfs.fs import FsError
from repro.net.rpc import RpcError
from repro.util.stats import OnlineStats


def payload(size: int, phase: int) -> bytes:
    """Known file contents: byte ``i`` is ``(phase + i) % 256``; each
    experiment derives a distinct *phase* per (rank, file, round)."""
    return bytes((phase + i) % 256 for i in range(size))


def mean(samples: Sequence[float]) -> float:
    """Plain ``sum/len`` (readpath, hotspot).  Not interchangeable with
    :func:`running_mean`: the two differ in the last bits."""
    return sum(samples) / len(samples) if samples else 0.0


def running_mean(samples: Sequence[float]) -> float:
    """Welford's running mean as :class:`OnlineStats` computes it, fed
    in sample order (chaos, elastic)."""
    stats = OnlineStats()
    for x in samples:
        stats.add(x)
    return stats.mean


def text_digest(*parts: str) -> str:
    """Hex sha256 of the ASCII *parts* concatenated in the order given."""
    return hashlib.sha256("".join(parts).encode("ascii")).hexdigest()


def p99(samples: Sequence[float]) -> float:
    """Nearest-rank 99th percentile (0.0 for no samples)."""
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


def testbed(
    p: dict,
    *,
    clients: Optional[int] = None,
    mcds: Optional[int] = None,
    imca: Optional[IMCaConfig] = None,
    resilient: bool = False,
    obs=None,
):
    """A GlusterFS+IMCa testbed sized from the parameter dict *p*
    (*clients*/*mcds* override ``p["num_clients"]``/``p["num_mcds"]``).
    *resilient* arms the fail-fast MCD policy every fault experiment
    uses — one attempt, eject after two failures, ``p``'s timeout,
    cooldown and seed; a cache-off testbed (``mcds=0``) has no bank to
    protect and gets none."""
    num_mcds = p["num_mcds"] if mcds is None else mcds
    resilience = None
    if resilient and num_mcds:
        resilience = ResilienceConfig(
            mcd_timeout=p["mcd_timeout"],
            mcd_retries=0,
            cooldown=p["cooldown"],
            eject_after=2,
            seed=p["seed"],
        )
    return build_gluster_testbed(
        TestbedConfig(
            num_clients=p["num_clients"] if clients is None else clients,
            num_mcds=num_mcds,
            mcd_memory=p["mcd_memory"],
            imca=IMCaConfig() if imca is None else imca,
            resilience=resilience,
        ),
        obs=obs,
    )


def create_files(
    tb, files: Iterable[tuple[int, str, Optional[bytes]]], *, close: bool = False
) -> Generator:
    """Untimed setup step (``yield from`` it, or hand it to ``drive``):
    for each ``(rank, path, data)`` in order, client *rank* creates
    *path* and writes *data* (``None`` leaves it empty).  Returns, per
    rank, the ``(path, fd)`` pairs left open — none with *close*, which
    closes each file again (dropping its data blocks from the bank)."""
    fds: list[list[tuple[str, int]]] = [[] for _ in tb.clients]
    for rank, path, data in files:
        client = tb.clients[rank]
        fd = yield from client.create(path)
        if data is not None:
            yield from client.write(fd, 0, len(data), data)
        if close:
            yield from client.close(fd)
        else:
            fds[rank].append((path, fd))
    return fds


def open_files(tb, paths: Sequence[str], clients=None) -> Generator:
    """Untimed setup step: each client (default: all, in rank order)
    opens every path; returns one ``{path: fd}`` table per client."""
    tables: list[dict[str, int]] = []
    for client in tb.clients if clients is None else clients:
        table = {}
        for path in paths:
            table[path] = yield from client.open(path)
        tables.append(table)
    return tables


class Probe:
    """Timed, verified client ops — the one definition of *checked*.

    ``stat``/``read`` run the op on client *rank*, record its latency,
    compare the result with what the experiment wrote, and fold it into
    that rank's sha256.  :attr:`fingerprint` combines the per-rank
    digests in rank order, so it is independent of how ranks interleave
    (ops of *one* rank must be sequential; an experiment that bursts
    concurrent children per rank digests its own slots).  An op that
    raises what a client op can raise — :class:`RpcError` or
    :class:`FsError` — counts in :attr:`errors` and returns ``None``;
    anything else is a harness bug and propagates.  Latencies are kept
    as sample lists, in completion order, so each experiment applies
    its own estimator.
    """

    def __init__(self, tb) -> None:
        self.sim = tb.sim
        self.clients = tb.clients
        self.stat_lat: list[float] = []
        self.read_lat: list[float] = []
        self.ops = 0
        self.errors = 0
        self.mismatches = 0
        self._hashers = [hashlib.sha256() for _ in tb.clients]

    def _timed(self, op: Generator, samples: Optional[list]) -> Generator:
        t0 = self.sim.now
        try:
            out = yield from op
        except (RpcError, FsError):
            self.errors += 1
            return None
        if samples is not None:
            samples.append(self.sim.now - t0)
        self.ops += 1
        return out

    def stat(self, rank: int, path: str, size: int) -> Generator:
        """Stat *path*; a size other than *size* is a mismatch."""
        st = yield from self._timed(self.clients[rank].stat(path), self.stat_lat)
        if st is not None:
            self._hashers[rank].update(st.size.to_bytes(8, "big"))
            if st.size != size:
                self.mismatches += 1
        return st

    def read(
        self, rank: int, fd: int, off: int, expected: bytes, *, timed: bool = True
    ) -> Generator:
        """Read ``len(expected)`` bytes at *off*; any others are a mismatch."""
        op = self.clients[rank].read(fd, off, len(expected))
        res = yield from self._timed(op, self.read_lat if timed else None)
        if res is not None:
            self._hashers[rank].update(res.data or b"")
            if res.data != expected:
                self.mismatches += 1
        return res

    def write(self, rank: int, fd: int, off: int, data: bytes) -> Generator:
        """Untimed write (errors are counted like any other op)."""
        op = self.clients[rank].write(fd, off, len(data), data)
        return (yield from self._timed(op, None))

    def digest(self, rank: int) -> str:
        """Hex sha256 of everything rank *rank* has observed so far."""
        return self._hashers[rank].hexdigest()

    @property
    def fingerprint(self) -> str:
        """One hash over every rank's digest, in rank order."""
        return text_digest(*(h.hexdigest() for h in self._hashers))

    def counts(self) -> dict:
        return {"ops": self.ops, "errors": self.errors, "mismatches": self.mismatches}


def hits_misses(tb, kinds: Sequence[str] = ("read",)) -> tuple[int, int]:
    """CMCache ``(hits, misses)`` so far, summed over *kinds*."""
    cm = tb.cm_stats()
    return (
        sum(cm.get(f"{k}_hits", 0) for k in kinds),
        sum(cm.get(f"{k}_misses", 0) for k in kinds),
    )


def hit_rate(now: tuple[int, int], since: tuple[int, int] = (0, 0)) -> float:
    """Hit rate of the ``(hits, misses)`` accrued between two marks."""
    hits, misses = now[0] - since[0], now[1] - since[1]
    return hits / (hits + misses) if hits + misses else 0.0
