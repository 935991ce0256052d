"""CMCache — the Client Memory Cache translator (§4.1, §4.2, Fig 4(b)).

Sits at the top of the GlusterFS client stack.  Intercepts ``stat`` and
``Read`` and attempts to satisfy them directly from the MCD array;
everything else (and every miss) propagates to the server.  ``Write``
is deliberately not intercepted — writes must be persistent (§4.3.2).

A read hands the MCD client its covering keys and the ``:stat`` key,
nothing else: a data key names its block, and the client's selector
routes it from the key alone (the modulo selector reads the block's
ordinal off the key's offset).

With a replicated :class:`~repro.memcached.client.MemcacheClient`
(``IMCaConfig.replicas > 1``) each get/multi-get is spread over the
key's replicas (seeded round-robin, skipping ejected daemons), so a
Zipf-hot ``abspath:stat`` key no longer pins one MCD.  Correctness
still rests on SMCache's purge fan-out: CMCache may read *any*
replica precisely because every server-side update and purge reaches
*all* of them.

Three opt-in read-path optimisations (all off by default; legacy runs
take byte-identical code paths):

* **Partial-hit fills** (``partial_fills``): a mixed multi-get result
  no longer discards its cached blocks.  The missing block indices are
  coalesced into the fewest contiguous byte ranges, *only* those ranges
  are read from the server (concurrently when there are several), and
  the reply is assembled from cached + fetched blocks.  SMCache's read
  hook pushes just the filled blocks.
* **Sequential readahead** (``readahead_blocks``): a per-file stream
  detector arms after :data:`READAHEAD_MIN_SEQ` back-to-back sequential
  reads and prefetches the next K blocks through the server into the
  MCD array on a background process, off the critical path.
* **Hot cache** (``hot_cache_bytes``): a small byte-bounded LRU in
  front of the MCD array holding stat and data blocks for files this
  client currently holds open.  Entries are invalidated on the
  client's own open/write/close/truncate/unlink (close-to-open
  consistency); a fully hot read performs zero simulated round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.blocks import BlockMapper, BlockValue, assemble_blocks, missing_ranges, split_blocks
from repro.core.config import IMCaConfig
from repro.core.hotcache import HotCache
from repro.core.keys import KeyCache, key_table
from repro.gluster.xlator import Xlator
from repro.localfs.types import ReadResult, StatBuf
from repro.memcached.client import MemcacheClient
from repro.obs.registry import ComponentMetrics
from repro.sim.events import Event
from repro.util.stats import Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Most server fill reads one partial hit may issue; a request whose
#: missing blocks coalesce into more runs than this falls back to a
#: single full-size read (a checkerboard of tiny fills would cost more
#: round trips than it saves in bytes).
MAX_FILL_RANGES = 4

#: Consecutive sequential reads before the readahead detector arms.
READAHEAD_MIN_SEQ = 2

#: Published to stat-singleflight followers when the leader's lookup
#: raised: each follower runs its own lookup (DESIGN §15).
_STAT_FAILED = object()


@dataclass
class _Stream:
    """Sequential-read detector state for one path."""

    #: Where the next read must start to continue the run.
    next_off: int
    #: Back-to-back sequential reads seen so far (this one included).
    run: int = 1
    #: Exclusive block index the readahead window has been issued to.
    ra_until: int = 0


class CMCacheXlator(Xlator, Tally):
    """Client-side IMCa translator."""

    TALLY = ("stat_hits", "stat_misses", "blocks_requested", "read_hits", "read_misses")

    def __init__(
        self,
        mc: MemcacheClient,
        config: Optional[IMCaConfig] = None,
        metrics: Optional[ComponentMetrics] = None,
        sim: Optional["Simulator"] = None,
        keys: Optional[KeyCache] = None,
    ) -> None:
        super().__init__("cmcache")
        self.mc = mc
        self.config = config or IMCaConfig()
        self.mapper = BlockMapper(self.config.block_size)
        #: Background (readahead) processes are spawned on the same
        #: simulator the MCD client runs on.
        self.sim = sim if sim is not None else mc.endpoint.net.sim
        #: The open-file database: absolute path -> open count (§4.3.2
        #: "the absolute path of the file and the file descriptor is
        #: stored in a database").
        self.open_db: dict[str, int] = {}
        #: Instruments live in a registry component when the testbed has
        #: one; ``metrics`` keeps its Counter shape for existing callers.
        self.component = metrics or ComponentMetrics("cmcache")
        self.metrics = self._tally(self.component.counters)
        #: Shared with the MCD client: op-lifecycle annotations (tags
        #: like ``read-partial-fill``) ride on the testbed's tracer.
        self.tracer = mc.tracer
        #: The testbed's one key table, or a private one.
        self._keys = key_table(keys, self.config.block_size)
        #: Hot tier (None when disabled).
        self._hot: Optional[HotCache] = (
            HotCache(self.config.hot_cache_bytes)
            if self.config.hot_cache_bytes > 0
            else None
        )
        #: path -> sequential stream state (readahead only).
        self._streams: dict[str, _Stream] = {}
        #: path -> block offsets prefetched but not yet hit (accounting).
        self._prefetched: dict[str, set[int]] = {}
        #: Singleflight (DESIGN §15): every path this client is statting
        #: right now — None until a second stat of the path arrives and
        #: swaps in the Event it parks on (as ``MemcacheClient._inflight``).
        self._stat_flights: dict[str, Optional[Event]] = {}

    # -- bookkeeping -------------------------------------------------------
    def _note_open(self, path: str) -> None:
        self.open_db[path] = self.open_db.get(path, 0) + 1

    def _note_close(self, path: str) -> None:
        n = self.open_db.get(path, 0) - 1
        if n <= 0:
            self.open_db.pop(path, None)
            # Last close ends the session: hot entries, stream state and
            # prefetch accounting for the path all die with it.
            self._invalidate(path)
        else:
            self.open_db[path] = n

    def _invalidate(self, path: str) -> None:
        """Drop all client-local read-path state for *path*."""
        if self._hot is not None:
            dropped = self._hot.invalidate_path(path)
            if dropped:
                self.metrics.inc("hot_invalidated", dropped)
        self._streams.pop(path, None)
        stale = self._prefetched.pop(path, None)
        if stale:
            self.metrics.inc("prefetch_wasted", len(stale))

    def _hot_put(self, hot: HotCache, key: str, path: str, value, nbytes: int) -> None:
        before = hot.evictions
        hot.put(key, path, value, nbytes)
        if hot.evictions != before:
            self.metrics.inc("hot_evictions", hot.evictions - before)

    def hot_info(self) -> dict[str, int]:
        """Live hot-tier occupancy/accounting (empty dict when off)."""
        hot = self._hot
        if hot is None:
            return {}
        return {
            "entries": len(hot),
            "used_bytes": hot.used,
            "capacity": hot.capacity,
            "hits": hot.hits,
            "misses": hot.misses,
            "evictions": hot.evictions,
            "invalidations": hot.invalidations,
        }

    # -- intercepted fops -----------------------------------------------------
    def stat(self, path: str) -> Generator:
        """Try the hot tier, then the MCD array; fall back to the server
        (§4.2).

        Concurrent stats of one path from this client collapse onto one
        lookup: the leader runs the tiered path below (its MCD get is
        itself singleflighted in :class:`MemcacheClient`); a follower
        parks, inherits a *copy* of the result and books what the
        leader booked — one answer from the server is N misses, not one
        miss and N-1 hits.  A leader that raises publishes a failure
        marker instead, and every follower runs its own lookup outside
        the table — a poisoned result is never shared.
        """
        tr = self.tracer
        flights = self._stat_flights
        leading = path not in flights
        if leading:
            flights[path] = None
        else:
            flight = flights[path]
            if flight is None:
                flight = flights[path] = Event(self.sim)
            self.metrics.inc("fastpath_stat_follows")
            if tr.oplog is not None:
                tr.op_tag("stat-coalesced")
                tr.op_count("fastpath_stat_follows")
            payload = yield flight
            if payload is not _STAT_FAILED:
                booked, result = payload
                if booked is not None:
                    self.metrics.inc(booked)
                return result.copy() if isinstance(result, StatBuf) else result
            self.metrics.inc("fastpath_stat_redispersed")
        published = _STAT_FAILED
        try:
            #: The counter this lookup books; None for an uncacheable path.
            booked = result = None
            key = self._keys.stat_key(path)
            if key is not None:
                # Close-to-open: no open session, no invalidation hooks.
                hot = self._hot
                if hot is not None and path not in self.open_db:
                    hot = None
                if hot is not None:
                    value = hot.get(key)
                    if isinstance(value, StatBuf):
                        self.metrics.inc("hot_stat_hits")
                        self._n_stat_hits += 1
                        if tr.oplog is not None:
                            tr.op_tag("stat-hot-hit")
                        booked, result = "stat_hits", value.copy()
                if result is None:
                    cached = yield from self.mc.get(key)
                    if cached is not None and isinstance(cached.value, StatBuf):
                        self._n_stat_hits += 1
                        if tr.oplog is not None:
                            tr.op_tag("stat-mcd-hit")
                        if hot is not None:
                            self._hot_put(hot, key, path, cached.value.copy(), StatBuf.WIRE_SIZE)
                        booked, result = "stat_hits", cached.value.copy()
                    else:
                        self._n_stat_misses += 1
                        if tr.oplog is not None:
                            tr.op_tag("stat-miss")
                        booked = "stat_misses"
            if result is None:
                result = yield from self._down().stat(path)
            published = (booked, result)
        finally:
            if leading:
                flight = flights.pop(path)
                if flight is not None:
                    flight.succeed(published)
        return result

    def read(self, path: str, offset: int, size: int) -> Generator:
        """Fig 4(b): fetch covering blocks; a miss forwards to the
        server — the whole request by default, or (with
        ``partial_fills``) only the missing block ranges.

        The file's ``:stat`` entry rides in the same multi-get: SMCache
        refreshes it on every write, so its size lets the client trust
        short (EOF) blocks and clamp reads at EOF — without it, any
        request touching a short block must conservatively miss.

        A data key holds the :class:`BlockValue` SMCache pushed for its
        block, so the values found are handed to
        :func:`assemble_blocks` in cover order as they are.
        """
        tr = self.tracer
        if size <= 0:
            result = yield from self._down().read(path, offset, size)
            return result
        cover = self.mapper.cover(offset, size)
        keys = self._keys.data_keys(path, cover.start, cover.stop)
        if None in keys:
            # Path too long to cache: bypass entirely.
            self.metrics.inc("uncacheable")
            if tr.oplog is not None:
                tr.op_tag("read-uncacheable")
            result = yield from self._down().read(path, offset, size)
            return result
        skey = self._keys.stat_key(path)

        hot = self._hot  # (close-to-open, as in :meth:`stat`)
        if hot is not None and path not in self.open_db:
            hot = None
        if hot is None:
            self._n_blocks_requested += len(keys)
            found = yield from self.mc.get_multi(keys if skey is None else keys + [skey])
            file_size: Optional[int] = None
            cached_stat = found.get(skey)
            if cached_stat is not None and isinstance(cached_stat.value, StatBuf):
                file_size = cached_stat.value.size
            # A found item is an McValue (always true): its value, else None.
            blocks = [item and item.value for item in map(found.get, keys)]
        else:
            # The hot tier first: anything it holds skips the multi-get.
            blocks, file_size = yield from self._lookup_hot(hot, path, cover.start, keys, skey)

        if self._prefetched:
            self._note_prefetch_hits(path, cover.start, blocks, file_size)
        if blocks[0] is None and (
            file_size is None or offset < file_size
            or cover.start * self.mapper.block_size < file_size
        ):
            # A miss at the first block: nothing to assemble.  (A read
            # at or past EOF is served empty only when the block EOF
            # falls in, if it is a covering one, is cached.)
            assembled = None
        else:
            assembled = assemble_blocks(self.mapper, blocks, offset, size, file_size=file_size)
        if assembled is not None:
            self._n_read_hits += 1
            if tr.oplog is not None:
                tr.op_tag("read-hit")
            self._note_read(path, offset, size, file_size)
            return assembled
        if self.config.partial_fills and file_size is not None:
            assembled = yield from self._fill_partial(
                path, offset, size, cover.start, blocks, file_size, hot
            )
            if assembled is not None:
                self.metrics.inc("read_partial_hits")
                if tr.oplog is not None:
                    tr.op_tag("read-partial-fill")
                self._note_read(path, offset, size, file_size)
                return assembled
        self._n_read_misses += 1
        if tr.oplog is not None:
            tr.op_tag("read-miss")
        result = yield from self._down().read(path, offset, size)
        self._note_read(path, offset, size, file_size)
        return result

    def _lookup_hot(
        self, hot: HotCache, path: str, first: int, keys: list[str], skey: Optional[str]
    ) -> Generator:
        """A read's covering blocks and file size from the hot tier,
        then the MCD array for whatever it lacks (entered in the hot
        tier as found): ``(blocks in cover order, file size or None)``."""
        tr = self.tracer
        blocks: list[Optional[BlockValue]] = []
        fetch_keys: list[str] = []
        file_size: Optional[int] = None
        for key in keys:
            value = hot.get(key)
            if isinstance(value, BlockValue):
                blocks.append(value)
                self.metrics.inc("hot_data_hits")
                if tr.oplog is not None:
                    tr.op_count("hot_block_hits")
            else:
                blocks.append(None)
                fetch_keys.append(key)
        if skey is not None:
            value = hot.get(skey)
            if isinstance(value, StatBuf):
                file_size = value.size
                self.metrics.inc("hot_stat_hits")
            else:
                fetch_keys.append(skey)
        self._n_blocks_requested += len(keys)
        if not fetch_keys:
            return blocks, file_size
        found = yield from self.mc.get_multi(fetch_keys)
        if file_size is None and skey is not None:
            cached_stat = found.pop(skey, None)
            if cached_stat is not None and isinstance(cached_stat.value, StatBuf):
                file_size = cached_stat.value.size
                self._hot_put(hot, skey, path, cached_stat.value.copy(), StatBuf.WIRE_SIZE)
        bs = self.mapper.block_size
        for key, item in found.items():
            bv = item.value
            if isinstance(bv, BlockValue):
                blocks[bv.block_offset // bs - first] = bv
                self._hot_put(hot, key, path, bv, bv.length)
        return blocks, file_size

    # -- partial-hit fills --------------------------------------------------
    def _fill_partial(
        self,
        path: str,
        offset: int,
        size: int,
        first: int,
        blocks: list[Optional[BlockValue]],
        file_size: int,
        hot: Optional[HotCache],
    ) -> Generator:
        """Read only the missing block ranges and assemble the reply.

        *blocks* holds the cached value of each covering block from
        block *first* on, None where there is none; the read needs the
        ones before EOF.  Returns the assembled :class:`ReadResult`, or
        None when the partial path does not apply (nothing cached,
        nothing missing, too many fill ranges) or assembly still fails —
        the caller then falls back to the legacy full-size read.
        """
        bs = self.mapper.block_size
        usable = list(blocks)
        missing: list[int] = []
        cached = 0
        for i, bv in enumerate(blocks):
            boff = (first + i) * bs
            if boff >= file_size:
                break
            if bv is None or (bv.length < bs and bv.length != min(bs, file_size - boff)):
                # Absent, or a stale short block (the file grew past it).
                missing.append(first + i)
                usable[i] = None
            else:
                cached += 1
        if not cached or not missing:
            return None
        ranges = missing_ranges(self.mapper, missing)
        if len(ranges) > MAX_FILL_RANGES:
            self.metrics.inc("fill_fanout_vetoes")
            return None
        self.metrics.inc("fill_reads", len(ranges))
        self.metrics.inc("fill_blocks", len(missing))
        self.metrics.inc("fill_cached_blocks", cached)
        if self.tracer.oplog is not None:
            self.tracer.op_count("fill_ranges", len(ranges))
            self.tracer.op_count("fill_blocks", len(missing))
        if len(ranges) == 1:
            aoff, asize = ranges[0]
            fetched = yield from self._down().read(path, aoff, asize)
            results = [fetched]
        else:
            # Several disjoint runs: fetch them concurrently (the server
            # io-threads pipeline them; wall time ~ largest, not sum).
            results = yield self.sim.gather(
                [self._down().read(path, aoff, asize) for aoff, asize in ranges],
                name="cm-fill",
            )
        for r in results:
            if r is None or r.size <= 0:
                continue
            fetched = split_blocks(self.mapper, r, path)
            for bv in fetched:
                usable[bv.block_offset // bs - first] = bv
            if hot is not None:
                # One slice of the path's keys (the blocks run on from
                # the first); none is None, or the read had bypassed.
                start = fetched[0].block_offset // bs
                keys = self._keys.data_keys(path, start, start + len(fetched))
                for key, bv in zip(keys, fetched):
                    self._hot_put(hot, key, path, bv, bv.length)
        assembled = assemble_blocks(
            self.mapper, usable, offset, size, file_size=file_size
        )
        if assembled is None:
            self.metrics.inc("fill_fallbacks")
        return assembled

    # -- sequential readahead ------------------------------------------------
    def _note_read(
        self, path: str, offset: int, size: int, file_size: Optional[int]
    ) -> None:
        """Feed the stream detector; spawn a prefetch when it arms.

        Pure bookkeeping plus (at most) one background process spawn —
        never any simulated time on the caller's critical path.
        """
        k = self.config.readahead_blocks
        if k <= 0:
            return
        end = offset + size
        st = self._streams.get(path)
        if st is None or offset != st.next_off:
            self._streams[path] = _Stream(next_off=end)
            return
        st.next_off = end
        st.run += 1
        if st.run < READAHEAD_MIN_SEQ:
            return
        # First block the stream has not touched yet, then skip whatever
        # an earlier prefetch already covered.
        first_uncovered = self.mapper.block_index(end - 1) + 1
        start_idx = max(first_uncovered, st.ra_until)
        limit = first_uncovered + k
        if file_size is not None:
            eof_idx = (
                self.mapper.block_index(file_size - 1) + 1 if file_size > 0 else 0
            )
            limit = min(limit, eof_idx)
        if start_idx >= limit:
            return
        st.ra_until = limit
        aoff = self.mapper.block_offset(start_idx)
        asize = (limit - start_idx) * self.mapper.block_size
        proc = self.sim.process(self._prefetch(path, aoff, asize), name="cm-readahead")
        # The prefetch outlives the read that armed it; detach it from
        # the op-attribution chain so its background server trips never
        # count against whichever op the client runs later.
        proc.parent = None

    def _prefetch(self, path: str, aoff: int, asize: int) -> Generator:
        """Background prefetch: read through the server so SMCache's
        completion hook pushes the blocks into the MCD array."""
        self.metrics.inc("prefetch_issued")
        try:
            r: ReadResult = yield from self._down().read(path, aoff, asize)
        except Exception:
            # Best-effort: a failed prefetch (dead brick, timeout) must
            # never surface to the application.
            self.metrics.inc("prefetch_errors")
            return
        if r.size <= 0:
            self.metrics.inc("prefetch_overruns")
            return
        covered = list(self.mapper.cover(aoff, r.size))
        self.metrics.inc("prefetch_blocks", len(covered))
        marks = self._prefetched.setdefault(path, set())
        for i in covered:
            marks.add(self.mapper.block_offset(i))

    def _note_prefetch_hits(
        self, path: str, first: int, blocks: list[Optional[BlockValue]],
        file_size: Optional[int],
    ) -> None:
        """Count needed blocks served thanks to an earlier prefetch
        (each prefetched block is counted at most once).  *blocks*: the
        cached value of each covering block from block *first* on."""
        marks = self._prefetched.get(path)
        if not marks:
            return
        bs = self.mapper.block_size
        for i, bv in enumerate(blocks):
            boff = (first + i) * bs
            if file_size is not None and boff >= file_size:
                break
            if bv is not None and boff in marks:
                marks.discard(boff)
                self.metrics.inc("prefetch_hits")
                if self.tracer.oplog is not None:
                    self.tracer.op_count("readahead_credits")
        if not marks:
            self._prefetched.pop(path, None)

    # -- pass-through with bookkeeping ---------------------------------------------
    def open(self, path: str) -> Generator:
        result = yield from self._down().open(path)
        # Open starts a fresh session: client-local state must be
        # revalidated against the (purged + restated) MCD array.
        self._invalidate(path)
        self._note_open(path)
        return result

    def create(self, path: str) -> Generator:
        result = yield from self._down().create(path)
        self._invalidate(path)
        self._note_open(path)
        return result

    def write(self, path: str, offset: int, size: int, data=None) -> Generator:
        """Not intercepted (§4.3.2: writes must be persistent) — but the
        hot tier's copies are stale the moment the write lands, so they
        are dropped before the wind."""
        self._invalidate(path)
        version = yield from self._down().write(path, offset, size, data)
        return version

    def truncate(self, path: str, length: int) -> Generator:
        self._invalidate(path)
        result = yield from self._down().truncate(path, length)
        return result

    def unlink(self, path: str) -> Generator:
        self._invalidate(path)
        result = yield from self._down().unlink(path)
        return result

    def flush(self, path: str) -> Generator:
        result = yield from self._down().flush(path)
        self._note_close(path)
        return result
