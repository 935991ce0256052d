"""debug/io-stats translator: per-fop counters and latency statistics.

Like GlusterFS's io-stats, it can be dropped anywhere in a stack to
observe the traffic crossing that point — experiments use one above
and one below CMCache to attribute latency to cache hits vs the server
path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.gluster.xlator import FOPS, Xlator
from repro.sim.process import departure
from repro.util.stats import Counter, OnlineStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class IoStatsXlator(Xlator):
    """Transparent measurement shim."""

    def __init__(self, sim: "Simulator", name: str = "io-stats") -> None:
        super().__init__(name)
        self.sim = sim
        self.counts = Counter()
        self.latency: dict[str, OnlineStats] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def _observe(self, fop: str, elapsed: float) -> None:
        stats = self.latency.get(fop)
        if stats is None:
            stats = self.latency[fop] = OnlineStats()
        stats.add(elapsed)
        self.counts.inc(fop)

    def _timed(self, fop: str, gen) -> Generator:
        # A fop wound ahead of its FUSE crossing starts when it ends.
        t0 = departure(self.sim)
        result = yield from gen
        # One that returns before then (a hot-cache hit, a follower)
        # took no time.
        now = self.sim.now
        self._observe(fop, now - t0 if now > t0 else 0.0)
        return result

    def lookup(self, path):
        result = yield from self._timed("lookup", self._down().lookup(path))
        return result

    def create(self, path):
        result = yield from self._timed("create", self._down().create(path))
        return result

    def open(self, path):
        result = yield from self._timed("open", self._down().open(path))
        return result

    def read(self, path, offset, size):
        result = yield from self._timed("read", self._down().read(path, offset, size))
        self.bytes_read += result.size
        return result

    def write(self, path, offset, size, data=None):
        version = yield from self._timed(
            "write", self._down().write(path, offset, size, data)
        )
        self.bytes_written += size
        return version

    def stat(self, path):
        result = yield from self._timed("stat", self._down().stat(path))
        return result

    def truncate(self, path, length):
        result = yield from self._timed("truncate", self._down().truncate(path, length))
        return result

    def unlink(self, path):
        result = yield from self._timed("unlink", self._down().unlink(path))
        return result

    def flush(self, path):
        result = yield from self._timed("flush", self._down().flush(path))
        return result

    def report(self) -> dict[str, dict[str, float]]:
        """Per-fop summary: count, mean/max latency."""
        out: dict[str, dict[str, float]] = {}
        for fop in FOPS:
            stats = self.latency.get(fop)
            if stats is None or stats.n == 0:
                continue
            out[fop] = {
                "count": stats.n,
                "mean": stats.mean,
                "min": stats.min,
                "max": stats.max,
            }
        return out
