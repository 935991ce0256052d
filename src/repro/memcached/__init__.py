"""A memcached reproduction: slab allocator, LRU item store, daemon,
and a libmemcache-style client (§2.2 of the paper).

The engine is a faithful functional model — slab classes with a 1.25
growth factor, per-class LRU eviction, lazy expiration, CAS, the 1 MiB
value / 250-byte key limits — because IMCa's measured behaviour
(capacity misses, self-management, the block-size ceiling) depends on
those mechanics.
"""

from repro.memcached.client import MemcacheClient
from repro.memcached.daemon import MemcachedDaemon, SERVICE
from repro.memcached.engine import (
    ITEM_OVERHEAD,
    Item,
    MAX_KEY_LEN,
    McError,
    McValue,
    MemcachedEngine,
)
from repro.memcached.hashing import (
    Crc32Selector,
    KetamaSelector,
    ModuloSelector,
    ReplicatedSelector,
    ServerSelector,
    selector,
)
from repro.memcached.slabs import PAGE_SIZE, SlabAllocator, SlabClass

__all__ = [
    "MemcachedEngine",
    "MemcachedDaemon",
    "MemcacheClient",
    "McValue",
    "McError",
    "Item",
    "SlabAllocator",
    "SlabClass",
    "PAGE_SIZE",
    "MAX_KEY_LEN",
    "ITEM_OVERHEAD",
    "Crc32Selector",
    "ModuloSelector",
    "KetamaSelector",
    "ReplicatedSelector",
    "ServerSelector",
    "selector",
    "SERVICE",
]
