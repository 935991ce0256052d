"""The memcached item store: hash table + per-class LRU + lazy expiry.

Implements the commands IMCa sends, over the slab allocator: the
multi-get CMCache reads with, the stores and deletes SMCache pushes and
purges with, ``add`` (store-if-absent, for a resize's backfill and
migration), ``flush_all`` (the rejoin probe) and ``scan`` (migration's
cursor walk).  The rest of memcached's command set (§2.2 names
replace, prepend, append, cas, incr and decr too) is not modelled: no
IMCa path sends it.

Eviction is per slab class from the LRU tail; expiration is lazy
("objects are evicted when the cache is full ... or a request to fetch
a data element ... and the time for the object in the cache has
expired").

Values are opaque Python objects with an explicit ``nbytes`` so the
IMCa layer can cache lightweight block descriptors while memory
accounting behaves as if the literal bytes were stored.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.memcached.slabs import PAGE_SIZE, SlabAllocator, SlabClass
from repro.memcached.tenancy import TenantAccount, TenantArbiter
from repro.util.stats import Counter, Tally

#: Real memcached's limits: 250-byte keys, 1 MiB values (§2.2 rounds the
#: key limit to "256 bytes"; the actual constant is 250).
MAX_KEY_LEN = 250
#: Per-item metadata overhead charged to the slab chunk (struct item,
#: key bytes, CAS, flags) — memcached's is ~48-80 bytes plus key.
ITEM_OVERHEAD = 56

#: Whitespace check for :meth:`McEngine._check_key`, one C-level scan
#: instead of a per-character generator (the old ``any(c.isspace()...)``
#: was the hottest non-kernel line under ``repro bench --profile``).
#: ``\s`` plus the str.isspace-only extras (U+001C..1F, U+0085) keeps
#: the accepted key set exactly the same.
_WS_RE = re.compile("[\\s\x1c-\x1f\x85]")
#: A key of 1..MAX_KEY_LEN printable non-space ASCII characters is valid
#: on sight (one C-level scan); any other key takes the rest of
#: :meth:`MemcachedEngine._check_key`.
_PLAIN_KEY_RE = re.compile("[!-~]{1,%d}" % MAX_KEY_LEN)


def key_nbytes(key: str) -> int:
    """Length of *key* as memcached sees it: UTF-8 bytes (what the key
    limit, the wire and the slab chunk are charged), not characters."""
    return len(key) if key.isascii() else len(key.encode())


class McError(Exception):
    """CLIENT_ERROR-style protocol violation (bad key, oversized value)."""


class McTooLarge(McError):
    """SERVER_ERROR object too large for cache: a well-formed store no
    slab class can hold.  A pipelined batch answers it for that item
    alone; a malformed command still fails its whole request."""


@dataclass(slots=True, frozen=True)
class McValue:
    """Client-visible stored value.  Immutable: the engine builds one
    per stored item on its first hit and hands that same object to
    every get that hits it (:meth:`MemcachedEngine.get_multi`)."""

    value: Any
    nbytes: int
    flags: int
    cas: int


@dataclass(slots=True)
class Item:
    """One stored object."""

    key: str
    value: Any
    nbytes: int
    flags: int
    exptime: float  # absolute expiry time; 0 = never
    cas: int
    slab: SlabClass
    #: Monotone insertion sequence number; anchors :meth:`MemcachedEngine.scan`
    #: cursors (``_items`` insertion order == seq order, so a cursor names a
    #: position that survives concurrent unlinks).
    seq: int = 0
    #: Owning tenant account when the engine runs with a TenantArbiter.
    tenant: Optional[TenantAccount] = field(default=None, repr=False)
    #: The client-visible :class:`McValue` of this item, built on its
    #: first hit.  Nothing changes an item in place (an overwrite links
    #: a new one), so it stays valid for the item's life.
    reply: Optional[McValue] = field(default=None, repr=False, compare=False)


class MemcachedEngine(Tally):
    """A single daemon's item store."""

    TALLY = (
        "cmd_get", "get_hits", "get_misses", "cmd_set", "curr_items", "total_items", "bytes",
        "evictions", "cmd_delete",
    )

    def __init__(
        self,
        mem_limit: int,
        clock: Callable[[], float],
        growth_factor: float = 1.25,
        tenancy: Optional[TenantArbiter] = None,
    ) -> None:
        self.slabs = SlabAllocator(mem_limit, growth_factor=growth_factor)
        self.clock = clock
        self.tenancy = tenancy
        self._items: dict[str, Item] = {}
        #: Per-slab-class LRU: OrderedDict key -> Item, MRU at the end.
        self._lru: dict[int, OrderedDict[str, Item]] = {}
        #: Per-class count of items carrying a TTL — gates the expired-
        #: first reclaim walk so TTL-free workloads (every default
        #: figure) never pay for it.
        self._ttl_items: dict[int, int] = {}
        self._cas = 0
        self._seq = 0
        self.stats = self._tally(Counter())

    # -- helpers -----------------------------------------------------------
    def _check_key(self, key: str) -> None:
        if _PLAIN_KEY_RE.fullmatch(key) is not None:
            return
        if not key or key_nbytes(key) > MAX_KEY_LEN:
            raise McError(f"bad key length {key_nbytes(key)}")
        if _WS_RE.search(key) is not None:
            raise McError("key contains whitespace")

    def _detach(self, item: Item, cause: str) -> None:
        """Take *item* out of the table, its class LRU and its chunk:
        :meth:`_unlink` without the counters, which the batch loops
        book once per batch."""
        cls = item.slab
        del self._items[item.key]
        del self._lru[cls.index][item.key]
        if item.exptime != 0:
            self._ttl_items[cls.index] -= 1
        if item.tenant is not None:
            self.tenancy.on_unlink(item, item.tenant, cause)
        self.slabs.free(cls)

    def _unlink(self, item: Item, cause: str = "drop") -> None:
        self._detach(item, cause)
        self._n_curr_items -= 1
        self._n_bytes -= item.nbytes

    def _expired(self, item: Item) -> bool:
        return item.exptime != 0 and self.clock() >= item.exptime

    def _evict_one(self, cls: SlabClass, requester: Optional[TenantAccount] = None) -> bool:
        """Free one chunk of *cls* for an OOM; False if the class is empty.

        Expired items are reclaimed before any live item is evicted —
        real memcached's behaviour, and the accounting the tenant
        arbiter depends on: an expired-but-unreclaimed item is free
        memory, not cache pressure, so charging it as an ``eviction``
        would make the arbiter chase phantom demand.  ``reclaimed`` and
        ``evictions`` are disjoint counters (and both disjoint from the
        read path's lazy ``expired``).  The walk only runs when the
        class holds TTL'd items at all (``_ttl_items`` gate).
        """
        lru = self._lru.get(cls.index)
        if not lru:
            return False
        if self._ttl_items.get(cls.index, 0) > 0:
            for victim in lru.values():
                if self._expired(victim):
                    self._unlink(victim, "reclaim")
                    self.stats.inc("reclaimed")
                    return True
        victim = None
        if self.tenancy is not None and requester is not None:
            victim = self.tenancy.pick_victim(cls.index, requester)
        if victim is None:
            victim = next(iter(lru.values()))
        self._unlink(victim, "evict")
        self._n_evictions += 1
        return True

    def _allocate(self, key: str, cls: SlabClass) -> bool:
        """Take a chunk of *cls* for *key*; False when out of memory."""
        requester = self.tenancy.tenant_of(key) if self.tenancy is not None else None
        while not self.slabs.alloc_in(cls):
            # Out of memory: lazily evict from this size class.  When the
            # class owns no items (all pages belong to other classes),
            # memcached answers SERVER_ERROR; we report a failed store.
            if not self._evict_one(cls, requester):
                self.stats.inc("out_of_memory")
                return False
        return True

    def _live_item(self, key: str) -> Optional[Item]:
        item = self._items.get(key)
        if item is None:
            return None
        if self._expired(item):
            self._unlink(item, "expire")
            self.stats.inc("expired")
            return None
        return item

    # -- storage commands ----------------------------------------------------
    def set_multi(
        self, items: Iterable[tuple[str, Any, int, int, float]], *, strict: bool = False
    ) -> list[bool]:
        """Store many ``(key, value, nbytes, flags, ttl)`` items in order:
        per item, True (STORED) or False (NOT_STORED: no memory for its
        class, or too large for any class — either fails that item
        alone).  *strict* (:meth:`set`, the batch of one): a too-large
        item raises :class:`McTooLarge` instead of answering False.

        The answers, the stored items, their LRU order and every counter
        are what a run of :meth:`set` calls leaves; a malformed key or a
        negative size raises after the items before it are stored and
        counted.  This is the one store loop; each item is validated and
        counted in ``cmd_set``.

        Per item, real memcached's order: allocate the new item *before*
        unlinking the old one, so an OOM-failed store leaves the prior
        value intact (destroying it first turned every failed overwrite
        into a silent delete).  When old and new land in the same slab
        class the old chunk is freed first, which makes the allocation
        infallible and charges no eviction to a same-size overwrite (the
        common stat-refresh path).  Each item is sized, placed in its
        class and given a chunk here: ``ITEM_OVERHEAD`` plus the key's
        and the value's bytes, :meth:`SlabAllocator.class_for` and
        :meth:`SlabAllocator.alloc_in` written out.  With no tenant
        arbiter and no TTL'd item in the class, an OOM evicts the class's
        LRU tail here, its chunk passing straight to the new item;
        otherwise :meth:`_allocate` runs the expired-first reclaim walk
        and the arbiter's victim pick.
        ``cmd_set``, ``curr_items``, ``total_items``, ``bytes``,
        ``evictions`` and the allocator's ``pages_allocated`` and
        ``alloc_failures`` are tallied once, in a ``finally``.
        """
        out: list[bool] = []
        answer = out.append
        objects, lrus, ttl_items, tenancy = self._items, self._lru, self._ttl_items, self.tenancy
        slabs = self.slabs
        classes, chunk_sizes = slabs.classes, slabs.chunk_sizes
        sets = linked = unlinked = nbytes_delta = evicted = pages = failures = 0
        cas, seq = self._cas, self._seq
        try:
            for key, value, nbytes, flags, ttl in items:
                # `_check_key`'s plain-key scan inline.
                if _PLAIN_KEY_RE.fullmatch(key) is None:
                    self._check_key(key)
                if nbytes < 0:
                    raise McError("negative value size")
                sets += 1
                size = ITEM_OVERHEAD + (len(key) if key.isascii() else len(key.encode())) + nbytes
                if size > PAGE_SIZE:
                    if strict:
                        raise McTooLarge(f"object too large for cache ({nbytes} bytes)")
                    answer(False)
                    continue
                cls = classes[bisect_left(chunk_sizes, size)]
                idx = cls.index
                lru = lrus.get(idx)
                old = objects.get(key)
                if old is not None and old.slab is cls:
                    self._detach(old, "overwrite")
                    unlinked += 1
                    nbytes_delta -= old.nbytes
                    old = None
                if tenancy is not None or (ttl_items and ttl_items.get(idx)):
                    if not self._allocate(key, cls):
                        answer(False)
                        continue
                elif cls.free_chunks:
                    cls.free_chunks -= 1
                    cls.used_chunks += 1
                elif slabs.total_pages < slabs.max_pages:
                    slabs.total_pages += 1
                    cls.pages += 1
                    cls.free_chunks += PAGE_SIZE // cls.chunk_size - 1
                    cls.used_chunks += 1
                    pages += 1
                elif not lru:
                    # Out of memory, and the class owns no items (all
                    # pages belong to other classes): memcached answers
                    # SERVER_ERROR.
                    failures += 1
                    self.stats.inc("out_of_memory")
                    answer(False)
                    continue
                else:
                    # Out of memory: the class's LRU tail is evicted and
                    # its chunk is the new item's (its free and the
                    # retried allocation cancel).  No arbiter and no
                    # TTL'd item in the class, so `_evict_one` would
                    # pick the same victim.  An eviction is also an
                    # allocation failure and an unlink: counted in the
                    # ``finally``.
                    victim_key, victim = lru.popitem(last=False)
                    del objects[victim_key]
                    nbytes_delta -= victim.nbytes
                    evicted += 1
                if old is not None:
                    # A different class's old copy; eviction only ever
                    # takes the new item's class, so it is still there.
                    self._unlink(old, "overwrite")
                cas += 1
                seq += 1
                if ttl > 0:
                    exptime = self.clock() + ttl
                    ttl_items[idx] = ttl_items.get(idx, 0) + 1
                else:
                    exptime = 0.0
                item = Item(key, value, nbytes, flags, exptime, cas, cls, seq)
                objects[key] = item
                if lru is None:
                    lru = lrus[idx] = OrderedDict()
                lru[key] = item
                if tenancy is not None:
                    item.tenant = tenancy.on_insert(item)
                linked += 1
                nbytes_delta += nbytes
                answer(True)
        finally:
            self._cas, self._seq = cas, seq
            unlinked += evicted
            failures += evicted
            if sets:
                self._n_cmd_set += sets
            if linked or unlinked:
                self._n_curr_items += linked - unlinked
                if linked:
                    self._n_total_items += linked
                self._n_bytes += nbytes_delta
            if evicted:
                self._n_evictions += evicted
            if pages:
                slabs._n_pages_allocated += pages
            if failures:
                slabs._n_alloc_failures += failures
        return out

    def set(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0) -> bool:
        """Store unconditionally: the batch of one.  True (STORED) unless
        allocation fails (NOT_STORED — any existing value is left
        intact); a too-large item raises :class:`McTooLarge`."""
        return self.set_multi(((key, value, nbytes, flags, ttl),), strict=True)[0]

    def add(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0) -> bool:
        """Store only if absent (NOT_STORED -> False)."""
        self._check_key(key)
        if self._live_item(key) is not None:
            return False
        return self.set(key, value, nbytes, flags, ttl)

    # -- retrieval -------------------------------------------------------------
    def get(self, key: str) -> Optional[McValue]:
        """Fetch one value (promotes in LRU); None on miss."""
        return self.get_multi((key,)).get(key)

    def get_multi(self, keys: Iterable[str]) -> dict[str, McValue]:
        """Fetch many keys: ``{key: McValue}``, hits only, in first-hit
        order — the reply a multi-get sends.

        The one lookup loop (:meth:`get` is the batch of one): each key
        in turn is probed, lazily expired, promoted in its class LRU and
        reported to the tenant arbiter, as a run of single gets would,
        and a hit answers the item's :class:`McValue`, built on its
        first hit and kept on the item (``Item.reply``).  Only the three
        tallies are bumped once per batch — in a ``finally``, so a bad
        key still counts the keys before it.  A key is validated only
        when it misses: one that is stored passed :meth:`_check_key` when
        it was, and a bad key is never stored, so it misses and raises
        there.
        """
        out: dict[str, McValue] = {}
        items, lru, tenancy = self._items, self._lru, self.tenancy
        hits = misses = 0
        try:
            for key in keys:
                item = items.get(key)
                if item is None or (item.exptime and self.clock() >= item.exptime):
                    if item is not None:
                        self._unlink(item, "expire")
                        self.stats.inc("expired")
                    # `_check_key`'s plain-key scan inline: a miss on a
                    # valid key costs no call.
                    if _PLAIN_KEY_RE.fullmatch(key) is None:
                        self._check_key(key)
                    misses += 1
                    if tenancy is not None:
                        tenancy.record_miss(key)
                    continue
                lru[item.slab.index].move_to_end(key)
                if tenancy is not None and item.tenant is not None:
                    tenancy.on_touch(item, item.tenant)
                    tenancy.record_hit(item.tenant)
                hits += 1
                value = item.reply
                if value is None:
                    value = item.reply = McValue(item.value, item.nbytes, item.flags, item.cas)
                out[key] = value
        finally:
            if hits or misses:
                self._n_cmd_get += hits + misses
                if hits:
                    self._n_get_hits += hits
                if misses:
                    self._n_get_misses += misses
        return out

    # -- mutation ----------------------------------------------------------------
    def delete(self, key: str) -> bool:
        """Remove *key*: the batch of one."""
        return self.delete_multi((key,))[0]

    def delete_multi(self, keys: Iterable[str]) -> list[bool]:
        """Remove many keys in order: per key, whether a live item was
        deleted.  What a run of single deletes leaves, with ``cmd_delete``
        booked once, in a ``finally``: a malformed key raises after the
        keys before it are deleted and counted.  A stored key passed
        :meth:`_check_key` when it was stored, so only a miss is
        validated, as in :meth:`get_multi`."""
        out: list[bool] = []
        objects = self._items
        deletes = unlinked = nbytes_delta = 0
        try:
            for key in keys:
                item = objects.get(key)
                if item is None:
                    if _PLAIN_KEY_RE.fullmatch(key) is None:
                        self._check_key(key)
                    deletes += 1
                    out.append(False)
                    continue
                deletes += 1
                if item.exptime != 0 and self.clock() >= item.exptime:
                    self._unlink(item, "expire")
                    self.stats.inc("expired")
                    out.append(False)
                    continue
                self._detach(item, "delete")
                unlinked += 1
                nbytes_delta -= item.nbytes
                out.append(True)
        finally:
            if deletes:
                self._n_cmd_delete += deletes
            if unlinked:
                self._n_curr_items -= unlinked
                self._n_bytes += nbytes_delta
        return out

    def flush_all(self) -> None:
        """Drop everything."""
        for key in list(self._items):
            self._unlink(self._items[key], "flush")
        self.stats.inc("cmd_flush")

    def scan(self, cursor: int = 0, limit: int = 64) -> tuple[int, list[tuple[str, Any, int, int, float]]]:
        """Cursor walk over live items in insertion order.

        The enumeration primitive behind elastic migration and
        window-close cleanup.  Returns ``(next_cursor, entries)`` where
        ``next_cursor`` is 0 once the walk is exhausted and each entry
        is ``(key, value, nbytes, flags, ttl)`` with ttl the *remaining*
        lifetime (0 = never).  Expired items are skipped but not
        unlinked — the read path lazily expires them.

        The cursor is anchored to item sequence numbers, not list
        positions: it names the first *seq* not yet visited, so items
        unlinked between pages (migration deletes, window-close
        cleanup, concurrent expiry) can never make the walk skip or
        repeat a survivor — a positional ``keys[cursor:cursor+limit]``
        cursor silently skipped one live key per earlier unlink.
        Items inserted mid-walk get higher seqs and are picked up by
        later pages.  ``cursor=0`` starts; ``next_cursor=0`` means
        exhausted (live seqs start at 1).
        """
        if limit < 1:
            raise ValueError(f"scan limit must be >= 1: {limit}")
        out: list[tuple[str, Any, int, int, float]] = []
        next_cursor = 0
        taken = 0
        # _items insertion order is strictly increasing in seq (any
        # overwrite unlinks and reinserts), so one forward pass finds
        # the resume point and the page after it.
        for item in self._items.values():
            if item.seq < cursor:
                continue
            if taken >= limit:
                next_cursor = item.seq
                break
            taken += 1
            if self._expired(item):
                continue
            ttl = 0.0 if item.exptime == 0 else item.exptime - self.clock()
            out.append((item.key, item.value, item.nbytes, item.flags, ttl))
        return next_cursor, out

    # -- introspection ---------------------------------------------------------------
    @property
    def curr_items(self) -> int:
        return self.stats.get("curr_items")

    def stat_dict(self) -> dict[str, int]:
        d = self.stats.as_dict()
        d.setdefault("get_hits", 0)
        d.setdefault("get_misses", 0)
        d.setdefault("evictions", 0)
        d["bytes_allocated"] = self.slabs.bytes_allocated
        d["limit_maxbytes"] = self.slabs.mem_limit
        return d

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """Per-tenant accounting (empty when tenancy is off)."""
        if self.tenancy is None:
            return {}
        return self.tenancy.stat_dict()

    def check_invariants(self) -> None:
        """Engine-wide consistency (used by property tests)."""
        per_class_counts: dict[int, int] = {}
        per_class_ttld: dict[int, int] = {}
        for key, item in self._items.items():
            assert item.key == key
            per_class_counts[item.slab.index] = per_class_counts.get(item.slab.index, 0) + 1
            if item.exptime != 0:
                per_class_ttld[item.slab.index] = per_class_ttld.get(item.slab.index, 0) + 1
            assert key in self._lru[item.slab.index]
        for cls in self.slabs.classes:
            n = per_class_counts.get(cls.index, 0)
            assert cls.used_chunks == n, f"class {cls.index}: {cls.used_chunks} != {n}"
            assert cls.used_chunks + cls.free_chunks == cls.pages * cls.chunks_per_page
        for idx, count in self._ttl_items.items():
            assert count == per_class_ttld.get(idx, 0), (
                f"class {idx}: ttl_items {count} != {per_class_ttld.get(idx, 0)}"
            )
        assert self.slabs.bytes_allocated <= self.slabs.mem_limit
        assert self.curr_items == len(self._items)
        if self.tenancy is not None:
            self.tenancy.check_invariants()
            total = sum(a.items for a in self.tenancy.accounts)
            assert total == len(self._items), f"tenant items {total} != {len(self._items)}"
            chunk_bytes = sum(a.bytes_used for a in self.tenancy.accounts)
            assert chunk_bytes == sum(
                it.slab.chunk_size for it in self._items.values()
            )
