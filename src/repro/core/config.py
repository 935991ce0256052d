"""IMCa configuration knobs.

Defaults follow the paper: 2 KiB blocks ("We use a block size of 2K for
the remaining experiments", §5.3), CRC32 key->MCD distribution (§5.1),
synchronous SMCache updates (threaded mode is the §5.3 write-latency
optimisation).  What the paper does unconditionally is not a switch:
stat and data are always cached (§4.2/§4.3), a file's blocks are purged
on open and discarded on close (§4.3.2), its ``:stat`` entry is
refreshed after every write, and entries carry no TTL (LRU only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memcached.slabs import PAGE_SIZE
from repro.memcached.tenancy import TenantSpec, validate_specs
from repro.util.units import KiB


@dataclass
class IMCaConfig:
    """Behavioural switches for the CMCache/SMCache pair."""

    #: Fixed cache block size (§4.3.1).  Bounded above by memcached's
    #: 1 MiB value limit.
    block_size: int = 2 * KiB

    #: Offload SMCache's MCD updates (and write read-back) to the update
    #: thread instead of the request's critical path (§4.3.2, Fig 6(c)).
    threaded_updates: bool = False

    #: Key->MCD distribution: "crc32" (libmemcache default), "modulo"
    #: (round-robin block striping, §5.5) or "ketama" (consistent
    #: hashing, the §7 future-work direction).
    selector: str = "crc32"

    #: Hot-key scale-out: store each key on this many distinct MCDs
    #: (primary from ``selector``, the rest via a ketama-ring walk).
    #: Reads spread over the replicas; writes and purges fan out to all
    #: of them.  1 = the paper's unreplicated mapping: every key's
    #: owner list is one daemon.
    replicas: int = 1

    # -- read-path optimisations (all off by default: legacy runs are
    # -- byte-identical with these at their defaults) ----------------------
    #: Partial-hit fills: on a mixed multi-get result, read *only* the
    #: missing block ranges from the server (coalesced into the fewest
    #: contiguous runs) and assemble the reply from cached + fetched
    #: blocks, instead of discarding the cached blocks and re-reading
    #: the whole request.
    partial_fills: bool = False

    #: Most server fill reads one partial hit may issue; a request whose
    #: missing blocks coalesce into more runs than this falls back to a
    #: single full-size read (a checkerboard of tiny fills would cost
    #: more round trips than it saves in bytes).
    max_fill_ranges: int = 4

    #: Sequential readahead depth: after ``readahead_min_seq``
    #: back-to-back sequential reads on a file, prefetch this many
    #: blocks past the stream position into the MCD array, off the
    #: critical path.  0 disables readahead.
    readahead_blocks: int = 0

    #: Consecutive sequential reads before the stream detector arms.
    readahead_min_seq: int = 2

    #: Client-side hot-cache budget in bytes: a small LRU inside
    #: CMCache, consulted before the MCD array, holding stat and data
    #: blocks for files this client currently holds open (close-to-open
    #: consistency: entries are invalidated on the client's own
    #: open/write/close/truncate/unlink).  0 disables the hot tier.
    hot_cache_bytes: int = 0

    # -- multi-tenant MCD tier (Memshare; DESIGN §14) ----------------------
    #: Tenant declarations: each carves a key-namespace prefix (an IMCa
    #: path subtree like ``/t/alpha/``) into its own accounted tenant
    #: with an optional reserved memory floor.  ``None`` (default) keeps
    #: the single-tenant engine byte-identically.
    tenants: Optional[tuple[TenantSpec, ...]] = None

    #: Arbitrate memory between tenants (floors + greedy shared-pool
    #: reassignment + per-tenant eviction preference).  ``False`` keeps
    #: vanilla global slab-LRU eviction but still accounts per tenant —
    #: the comparison baseline in ``repro tenants``.
    tenant_arbitrate: bool = True

    #: Target bytes moved per shared-pool reassignment (one slab page).
    tenant_quantum: int = PAGE_SIZE

    #: Recorded gets between reassignment decisions (per daemon).
    tenant_rebalance_ops: int = 256

    #: Shadow-LRU capacity per tenant (recently evicted keys tracked as
    #: the marginal-gain estimator).
    tenant_ghost_entries: int = 4096

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.block_size > PAGE_SIZE:
            raise ValueError(
                f"block_size {self.block_size} exceeds memcached's "
                f"{PAGE_SIZE}-byte value ceiling (§4.3.1)"
            )
        if self.selector not in ("crc32", "modulo", "ketama"):
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1: {self.replicas}")
        if self.max_fill_ranges < 1:
            raise ValueError(f"max_fill_ranges must be >= 1: {self.max_fill_ranges}")
        if self.readahead_blocks < 0:
            raise ValueError(f"readahead_blocks must be >= 0: {self.readahead_blocks}")
        if self.readahead_min_seq < 1:
            raise ValueError(f"readahead_min_seq must be >= 1: {self.readahead_min_seq}")
        if self.hot_cache_bytes < 0:
            raise ValueError(f"hot_cache_bytes must be >= 0: {self.hot_cache_bytes}")
        if self.tenants is not None:
            validate_specs(self.tenants)
        if self.tenant_quantum < 1:
            raise ValueError(f"tenant_quantum must be >= 1: {self.tenant_quantum}")
        if self.tenant_rebalance_ops < 1:
            raise ValueError(
                f"tenant_rebalance_ops must be >= 1: {self.tenant_rebalance_ops}"
            )
        if self.tenant_ghost_entries < 1:
            raise ValueError(
                f"tenant_ghost_entries must be >= 1: {self.tenant_ghost_entries}"
            )
