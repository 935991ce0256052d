"""SMCache — the Server Memory Cache translator (§4.1, Fig 4(a)/(c)).

Sits above the posix brick on the GlusterFS server.  The request path
may transform operations (reads are extended to block boundaries); the
completion path — the code after each ``yield from self._down()...``,
i.e. the callback-handler hooks of §4.1 — feeds results to the MCDs:

* ``open``:   purge the file's cached blocks, push its stat (§4.2/§4.3.2)
* ``read``:   push the covering blocks after the FS read completes
* ``write``:  after the persistent write, read back the block-aligned
  region and push it ("neither CMCache nor SMCache can directly send
  the Write data to the MCDs", §4.3.2)
* ``unlink``: remove the file's entries ("avoid false positives", §4.2)
* ``close``:  discard the file's data blocks

With ``threaded_updates`` the pushes (and the write read-back) run on
an update thread off the critical path — the Fig 6(c) optimisation.

A block push is one :meth:`~repro.memcached.client.MemcacheClient.set_multi`:
the covering blocks leave as one pipelined request per MCD, the MCDs
concurrently, as a read's multi-get does.  The ``:stat`` push stays a
separate, later ``set``: a poller that sees the new mtime trusts the
blocks against the new size, so the blocks must already be there.

**Purge index** (``_pushed``: path -> block offsets): what ``open`` /
``close`` / ``truncate`` / ``unlink`` delete by.  A push enters its
offsets in the path's *live* set before the request leaves, keeps them
when a store fails or is refused, and enters them again when the stores
return — so a purge that runs while the push is in flight deletes its
blocks too, and a store that lands behind that purge's delete is still
known to the next one.  At quiescence every ``path:<off>`` key an MCD
holds is in ``_pushed[path]``; the index may name keys no MCD holds
(deleting an absent key is harmless).

**Replication invariant** (``IMCaConfig.replicas > 1``): every push and
every purge issued here goes through a replica-aware
:class:`~repro.memcached.client.MemcacheClient`, which fans stores and
deletes out to *all* replicas of a key.  A purge that skipped a replica
would leave a stale ``:stat`` or data block serveable to the read
spreader, so SMCache must never bypass the client's fan-out (e.g. by
talking to a daemon directly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.core.blocks import BlockMapper, split_blocks
from repro.core.config import IMCaConfig
from repro.core.keys import KeyCache
from repro.gluster.xlator import Xlator
from repro.localfs.types import ReadResult, StatBuf, slice_result
from repro.memcached.client import MemcacheClient
from repro.obs.registry import ComponentMetrics
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Update threads draining the queue under ``threaded_updates``.
UPDATE_THREADS = 2


class SMCacheXlator(Xlator):
    """Server-side IMCa translator."""

    def __init__(
        self,
        sim: "Simulator",
        mc: MemcacheClient,
        config: Optional[IMCaConfig] = None,
        metrics: Optional[ComponentMetrics] = None,
    ) -> None:
        super().__init__("smcache")
        self.sim = sim
        self.mc = mc
        self.config = config or IMCaConfig()
        self.mapper = BlockMapper(self.config.block_size)
        #: path -> block offsets this server has pushed (purge index).
        self._pushed: dict[str, set[int]] = {}
        self._keys = KeyCache()
        #: Instruments live in a registry component when the testbed has
        #: one; ``metrics`` keeps its Counter shape for existing callers.
        self.component = metrics or ComponentMetrics("smcache")
        self.metrics = self.component.counters
        self._queue: Optional[Store] = None
        if self.config.threaded_updates:
            self._queue = Store(sim)
            for i in range(UPDATE_THREADS):
                sim.process(self._update_worker(), name=f"smcache-updater{i}")

    # -- update thread ---------------------------------------------------------
    def _update_worker(self) -> Generator:
        """The "additional thread" of §4.3.2: drains queued MCD updates."""
        assert self._queue is not None
        while True:
            task: Callable[[], Generator] = yield self._queue.get()
            self.metrics.inc("async_updates")
            yield from task()

    def _run_update(self, task: Callable[[], Generator]) -> Generator:
        """Run *task* inline (sync mode) or hand it to the update thread."""
        if self._queue is not None:
            yield self._queue.put(task)
        else:
            yield from task()

    # -- MCD plumbing -------------------------------------------------------------
    def _fanout_width(self) -> int:
        """Extra copies each replicated store/purge writes (0 when off)."""
        return min(self.mc.replicas, len(self.mc.servers)) - 1

    def _push_stat(self, path: str, stat: StatBuf) -> Generator:
        key = self._keys.stat_key(path)
        if key is None:
            return
        self.metrics.inc("stat_pushes")
        width = self._fanout_width()
        if width:
            self.metrics.inc("replica_pushes", width)
        yield from self.mc.set(key, stat.copy(), nbytes=StatBuf.WIRE_SIZE)

    def _push_blocks(self, path: str, result: ReadResult) -> Generator:
        if result.size == 0:
            return
        items: list[tuple[str, object, int, int, float]] = []
        hints: list[int] = []
        offsets: list[int] = []
        for bv in split_blocks(self.mapper, result, path):
            key = self._keys.data_key(path, bv.block_offset)
            if key is None:
                self.metrics.inc("uncacheable")
                continue
            self.metrics.inc("block_pushes")
            items.append((key, bv, bv.length, 0, 0))
            hints.append(self.mapper.block_index(bv.block_offset))
            offsets.append(bv.block_offset)
        if not items:
            return
        width = self._fanout_width()
        if width:
            self.metrics.inc("replica_pushes", width * len(items))
        # Indexed in the *live* set before the request leaves, and kept
        # when a store fails or is refused: a purge that runs while the
        # push is in flight must find these offsets (deleting an absent
        # key is harmless; a stored key no purge knows of is not).
        self._pushed.setdefault(path, set()).update(offsets)
        # One pipelined request per MCD, the MCDs concurrently.
        yield from self.mc.set_multi(items, hints)
        # Such a purge took that set, and on a multi-core MCD its small
        # delete can overtake a large store: index what may have landed
        # behind it in the set that is live now.
        self._pushed.setdefault(path, set()).update(offsets)

    def _purge_data(self, path: str) -> Generator:
        offsets = self._pushed.pop(path, None)
        if not offsets:
            return
        keys, hints = [], []
        for off in sorted(offsets):
            key = self._keys.data_key(path, off)
            if key is not None:
                keys.append(key)
                hints.append(self.mapper.block_index(off))
        if keys:
            self.metrics.inc("purges")
            self.metrics.inc("purged_blocks", len(keys))
            width = self._fanout_width()
            if width:
                # delete_multi invalidates every replica of every key
                # (the client books the same legs as replica_deletes).
                self.metrics.inc("replica_purges", width * len(keys))
            yield from self.mc.delete_multi(keys, hints)

    def _purge_stat(self, path: str) -> Generator:
        key = self._keys.stat_key(path)
        if key is not None:
            width = self._fanout_width()
            if width:
                self.metrics.inc("replica_purges", width)
            yield from self.mc.delete(key)

    # -- fops ---------------------------------------------------------------------
    def open(self, path: str) -> Generator:
        result: StatBuf = yield from self._down().open(path)
        yield from self._purge_data(path)
        yield from self._push_stat(path, result)
        return result

    def create(self, path: str) -> Generator:
        result: StatBuf = yield from self._down().create(path)
        yield from self._push_stat(path, result)
        return result

    def stat(self, path: str) -> Generator:
        """A stat that reached the server was a CMCache miss: push the
        fresh structure so the next one hits."""
        result: StatBuf = yield from self._down().stat(path)
        yield from self._run_update(lambda: self._push_stat(path, result))
        return result

    def read(self, path: str, offset: int, size: int) -> Generator:
        if size <= 0:
            result = yield from self._down().read(path, offset, size)
            return result
        # Extend to block boundaries (Fig 4(a)): "the Read operation may
        # potentially require the server to read additional data".
        aoff, asize = self.mapper.align(offset, size)
        self.metrics.inc("read_extra_bytes", asize - size)
        aligned: ReadResult = yield from self._down().read(path, aoff, asize)
        yield from self._run_update(lambda: self._push_blocks(path, aligned))
        return slice_result(aligned, offset, size)

    def write(self, path: str, offset: int, size: int, data=None) -> Generator:
        """Fig 4(c): persist first, then read back the covering blocks
        and update the MCDs."""
        version = yield from self._down().write(path, offset, size, data)

        def update() -> Generator:
            if size > 0:
                aoff, asize = self.mapper.align(offset, size)
                readback: ReadResult = yield from self._down().read(path, aoff, asize)
                self.metrics.inc("write_readbacks")
                yield from self._push_blocks(path, readback)
            # Refresh ``:stat`` so pollers (the §4.2 producer/consumer
            # pattern) observe fresh mtimes.
            fresh: StatBuf = yield from self._down().stat(path)
            yield from self._push_stat(path, fresh)

        yield from self._run_update(update)
        return version

    def truncate(self, path: str, length: int) -> Generator:
        result = yield from self._down().truncate(path, length)
        # Cached blocks above (and straddling) the cut are now wrong.
        yield from self._purge_data(path)
        yield from self._push_stat(path, result)
        return result

    def unlink(self, path: str) -> Generator:
        result = yield from self._down().unlink(path)
        yield from self._purge_data(path)
        yield from self._purge_stat(path)
        return result

    def flush(self, path: str) -> Generator:
        result = yield from self._down().flush(path)
        yield from self._purge_data(path)
        return result
