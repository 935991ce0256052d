"""The memcached item store: hash table + per-class LRU + lazy expiry.

Implements the command set the paper names (§2.2: "set, replace,
delete, prepend and append", plus get/gets/cas/add/incr/decr/
flush_all/stats) over the slab allocator.  Eviction is per slab class
from the LRU tail; expiration is lazy ("objects are evicted when the
cache is full ... or a request to fetch a data element ... and the time
for the object in the cache has expired").

Values are opaque Python objects with an explicit ``nbytes`` so the
IMCa layer can cache lightweight block descriptors while memory
accounting behaves as if the literal bytes were stored.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.memcached.slabs import SlabAllocator, SlabClass
from repro.memcached.tenancy import TenantAccount, TenantArbiter
from repro.util.stats import Counter

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
#: on sight (the batch lookup's one-scan test); any other key takes the
#: full :meth:`MemcachedEngine._check_key`.
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


@dataclass
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


class MemcachedEngine:
    """A single daemon's item store."""

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
        self.stats = Counter()

    # -- helpers -----------------------------------------------------------
    def _check_key(self, key: str) -> None:
        if not key or key_nbytes(key) > MAX_KEY_LEN:
            raise McError(f"bad key length {key_nbytes(key)}")
        if _WS_RE.search(key) is not None:
            raise McError("key contains whitespace")

    def _total_size(self, key: str, nbytes: int) -> int:
        return ITEM_OVERHEAD + key_nbytes(key) + nbytes

    def _unlink(self, item: Item, cause: str = "drop") -> None:
        del self._items[item.key]
        del self._lru[item.slab.index][item.key]
        if item.exptime != 0:
            self._ttl_items[item.slab.index] -= 1
        if item.tenant is not None:
            self.tenancy.on_unlink(item, item.tenant, cause)
        self.slabs.free(item.slab)
        self.stats.inc("curr_items", -1)
        self.stats.inc("bytes", -item.nbytes)

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
        self.stats.inc("evictions")
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

    def _insert(self, cls: SlabClass, key: str, value: Any, nbytes: int,
                flags: int, ttl: float) -> Item:
        """Link a new item into an already-allocated chunk of *cls*."""
        self._cas += 1
        self._seq += 1
        exptime = self.clock() + ttl if ttl > 0 else 0.0
        item = Item(key, value, nbytes, flags, exptime, self._cas, cls, self._seq)
        self._items[key] = item
        self._lru.setdefault(cls.index, OrderedDict())[key] = item
        if exptime != 0:
            self._ttl_items[cls.index] = self._ttl_items.get(cls.index, 0) + 1
        if self.tenancy is not None:
            item.tenant = self.tenancy.on_insert(item)
        self.stats.inc("curr_items")
        self.stats.inc("total_items")
        self.stats.inc("bytes", nbytes)
        return item

    def _live_item(self, key: str) -> Optional[Item]:
        item = self._items.get(key)
        if item is None:
            return None
        if self._expired(item):
            self._unlink(item, "expire")
            self.stats.inc("expired")
            return None
        return item

    def _touch_lru(self, item: Item) -> None:
        self._lru[item.slab.index].move_to_end(item.key)
        if item.tenant is not None:
            self.tenancy.on_touch(item, item.tenant)

    # -- storage commands ----------------------------------------------------
    def _store(self, key: str, value: Any, nbytes: int, flags: int, ttl: float) -> bool:
        """Store, preserving any existing value when allocation fails.

        Real memcached allocates the new item *before* replacing the old
        one, so an OOM-failed store answers SERVER_ERROR and the prior
        value survives; destroying it first (the pre-fix behaviour)
        turned every failed overwrite into a silent delete.  When old
        and new land in the same slab class, freeing the old chunk first
        makes the allocation infallible, so the old value is never at
        risk *and* no spurious eviction is charged to a same-size
        overwrite (the common stat-refresh path).
        """
        cls = self.slabs.class_for(self._total_size(key, nbytes))
        if cls is None:
            raise McTooLarge(f"object too large for cache ({nbytes} bytes)")
        old = self._items.get(key)
        if old is not None and old.slab is cls:
            self._unlink(old, "overwrite")
        if not self._allocate(key, cls):
            return False
        # Eviction during allocation targets only the new item's class;
        # the old item lives in a different one, but re-check anyway so
        # a future cross-class eviction policy cannot double-unlink.
        old = self._items.get(key)
        if old is not None:
            self._unlink(old, "overwrite")
        self._insert(cls, key, value, nbytes, flags, ttl)
        return True

    def set(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0) -> bool:
        """Store unconditionally.  True (STORED) unless allocation fails
        (NOT_STORED — any existing value is left intact)."""
        self._check_key(key)
        if nbytes < 0:
            raise McError("negative value size")
        self.stats.inc("cmd_set")
        return self._store(key, value, nbytes, flags, ttl)

    def add(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0) -> bool:
        """Store only if absent (NOT_STORED -> False)."""
        self._check_key(key)
        if self._live_item(key) is not None:
            return False
        return self.set(key, value, nbytes, flags, ttl)

    def replace(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0) -> bool:
        """Store only if present."""
        self._check_key(key)
        if self._live_item(key) is None:
            return False
        return self.set(key, value, nbytes, flags, ttl)

    def cas(self, key: str, value: Any, nbytes: int, cas: int, flags: int = 0, ttl: float = 0) -> str:
        """Compare-and-swap: 'STORED', 'EXISTS' (cas mismatch),
        'NOT_FOUND', or 'NOT_STORED' (allocation failure; value intact).

        Stores directly instead of delegating to :meth:`set`, so
        ``cmd_set`` counts only storage commands and cas outcomes get
        their own ``cas_hits``/``cas_badval``/``cas_misses`` counters —
        the same accounting real memcached reports.
        """
        self._check_key(key)
        item = self._live_item(key)
        if item is None:
            self.stats.inc("cas_misses")
            return "NOT_FOUND"
        if item.cas != cas:
            self.stats.inc("cas_badval")
            return "EXISTS"
        if not self._store(key, value, nbytes, flags, ttl):
            return "NOT_STORED"
        self.stats.inc("cas_hits")
        return "STORED"

    def _concat(self, key: str, value: Any, nbytes: int, *, append: bool) -> bool:
        self._check_key(key)
        item = self._live_item(key)
        if item is None:
            return False
        if isinstance(item.value, (bytes, bytearray)) and isinstance(value, (bytes, bytearray)):
            new_value: Any = (
                bytes(item.value) + bytes(value) if append else bytes(value) + bytes(item.value)
            )
        else:
            # Opaque payloads: keep a tuple chain in concat order.
            base = item.value if isinstance(item.value, tuple) else (item.value,)
            extra = (value,)
            new_value = base + extra if append else extra + base
        new_bytes = item.nbytes + nbytes
        flags = item.flags
        ttl = 0.0 if item.exptime == 0 else item.exptime - self.clock()
        # Allocate-before-unlink, like set: a failed concat answers
        # NOT_STORED and must leave the existing value untouched.
        return self._store(key, new_value, new_bytes, flags, ttl)

    def append(self, key: str, value: Any, nbytes: int) -> bool:
        return self._concat(key, value, nbytes, append=True)

    def prepend(self, key: str, value: Any, nbytes: int) -> bool:
        return self._concat(key, value, nbytes, append=False)

    # -- retrieval -------------------------------------------------------------
    def get(self, key: str) -> Optional[Item]:
        """Fetch one item (promotes in LRU); None on miss."""
        return self.get_multi((key,)).get(key)

    def get_multi(self, keys: Iterable[str]) -> dict[str, Item]:
        """Fetch many keys; only hits appear in the result.

        The one lookup loop (:meth:`get` is the batch of one): each key
        in turn is validated, probed, lazily expired, promoted in its
        class LRU and reported to the tenant arbiter, as a run of single
        gets would; only the three counters are booked once per batch —
        in a ``finally``, so a bad key still books the keys before it.
        """
        out: dict[str, Item] = {}
        items, lru, tenancy = self._items, self._lru, self.tenancy
        hits = misses = 0
        try:
            for key in keys:
                if _PLAIN_KEY_RE.fullmatch(key) is None:
                    self._check_key(key)
                item = items.get(key)
                if item is not None and item.exptime != 0 and self.clock() >= item.exptime:
                    self._unlink(item, "expire")
                    self.stats.inc("expired")
                    item = None
                if item is None:
                    misses += 1
                    if tenancy is not None:
                        tenancy.record_miss(key)
                    continue
                lru[item.slab.index].move_to_end(key)
                tenant = item.tenant
                if tenant is not None:
                    tenancy.on_touch(item, tenant)
                    tenancy.record_hit(tenant)
                hits += 1
                out[key] = item
        finally:
            if hits or misses:
                self.stats.inc("cmd_get", hits + misses)
            if hits:
                self.stats.inc("get_hits", hits)
            if misses:
                self.stats.inc("get_misses", misses)
        return out

    # -- mutation ----------------------------------------------------------------
    def delete(self, key: str) -> bool:
        self._check_key(key)
        self.stats.inc("cmd_delete")
        item = self._live_item(key)
        if item is None:
            return False
        self._unlink(item, "delete")
        return True

    def touch(self, key: str, ttl: float) -> bool:
        """Update an item's TTL without fetching it (``touch_hits``/
        ``touch_misses``, like every other command pair)."""
        self._check_key(key)
        self.stats.inc("cmd_touch")
        item = self._live_item(key)
        if item is None:
            self.stats.inc("touch_misses")
            return False
        old_ttld = item.exptime != 0
        item.exptime = self.clock() + ttl if ttl > 0 else 0.0
        new_ttld = item.exptime != 0
        if old_ttld != new_ttld:
            idx = item.slab.index
            self._ttl_items[idx] = self._ttl_items.get(idx, 0) + (1 if new_ttld else -1)
        self._touch_lru(item)
        self.stats.inc("touch_hits")
        return True

    def _delta(self, key: str, delta: int, op: str) -> Optional[int]:
        """Shared incr/decr: validate, count, mutate, recompute nbytes.

        The stored value becomes the new integer and ``nbytes`` is
        recomputed as its decimal width — real memcached stores the
        ASCII representation, so ``incr`` can grow an item past its
        chunk (9 -> 10 -> ... -> 1000000000), at which point memcached
        reallocates into the next class; we do the same via the normal
        store path (preserving TTL and flags).  In-place width changes
        adjust the ``bytes`` stat but not slab accounting — the chunk
        is unchanged.
        """
        self._check_key(key)
        item = self._live_item(key)
        if item is None:
            self.stats.inc(f"{op}_misses")
            return None
        try:
            current = int(item.value)
        except (TypeError, ValueError):
            raise McError(f"cannot {op}ement non-numeric value") from None
        new = max(0, current + delta)
        new_nbytes = len(str(new))
        self.stats.inc(f"{op}_hits")
        if self._total_size(key, new_nbytes) > item.slab.chunk_size:
            # Numeric width outgrew the chunk: reallocate like a store.
            ttl = 0.0 if item.exptime == 0 else item.exptime - self.clock()
            if not self._store(key, new, new_nbytes, item.flags, ttl):
                return None
            return new
        if new_nbytes != item.nbytes:
            self.stats.inc("bytes", new_nbytes - item.nbytes)
            item.nbytes = new_nbytes
        item.value = new
        self._cas += 1
        item.cas = self._cas
        self._touch_lru(item)
        return new

    def incr(self, key: str, delta: int = 1) -> Optional[int]:
        """Numeric increment; None if missing, McError if non-numeric."""
        return self._delta(key, delta, "incr")

    def decr(self, key: str, delta: int = 1) -> Optional[int]:
        """Numeric decrement (floors at 0, like the protocol)."""
        return self._delta(key, -delta, "decr")

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
