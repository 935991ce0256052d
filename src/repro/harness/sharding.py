"""Sharding of one large run across worker processes.

:mod:`repro.harness.parallel` parallelises *across* experiment jobs:
each sweep point is its own simulation and :func:`~repro.harness.parallel.pmap`
fans the points over a process pool.  This module parallelises *within*
one large run: a population of mutually independent client groups (no
shared station, no shared cache bank) is split into shards, every shard
runs its groups to completion over its own
:class:`~repro.sim.core.Simulator`, and the per-shard metrics merge
deterministically by shard index.

This is exact — not an approximation — precisely when the groups are
independent: a DES over disjoint event populations decomposes into the
product of its components, so simulating the components separately
yields the same per-group timestamps and counters as one fused run.
The scale suite's end-to-end points (``repro bench``) are built this
way: clients share a client stack *within* a cell, never across cells.

Shard jobs go through :func:`~repro.harness.parallel.pmap`, so with no
active :func:`~repro.harness.parallel.job_pool` they run inline (byte-
identical, just sequential), and under ``--jobs N`` they spread over
the worker pool.  As with every pmap job, the callable must be a
module-level function and the spec is picklable primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.harness.parallel import pmap


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the client population (picklable)."""

    index: int
    num_shards: int
    #: Half-open global client-id range [lo, hi) owned by this shard.
    client_lo: int
    client_hi: int

    @property
    def clients(self) -> int:
        return self.client_hi - self.client_lo


def plan_shards(total_clients: int, num_shards: int) -> list[ShardSpec]:
    """Split *total_clients* into *num_shards* contiguous id ranges.

    The split is deterministic: earlier shards absorb the remainder, so
    ``plan_shards(10, 4)`` owns ``[0,3) [3,6) [6,8) [8,10)``.  Client
    ids stay **global** — a shard simulates clients ``lo..hi-1`` with
    their original ids, so per-client derived values (service spreads,
    seeds, names) are unchanged by the shard count.
    """
    if total_clients < 1:
        raise ValueError("total_clients must be >= 1")
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    num_shards = min(num_shards, total_clients)
    base, extra = divmod(total_clients, num_shards)
    specs = []
    lo = 0
    for i in range(num_shards):
        hi = lo + base + (1 if i < extra else 0)
        specs.append(
            ShardSpec(index=i, num_shards=num_shards, client_lo=lo, client_hi=hi)
        )
        lo = hi
    return specs


def merge_shard_metrics(shard_results: Sequence[dict]) -> dict:
    """Fold per-shard metric dicts into one, deterministically.

    Numeric values are summed; keys appear in first-shard-first order
    (pmap returns results by submission index, never completion order,
    so the merged dict is identical for any worker count).  Non-numeric
    values must agree across shards and pass through; a disagreement is
    a sharding bug and raises.
    """
    merged: dict[str, Any] = {}
    for result in shard_results:
        for key, value in result.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                if key in merged and merged[key] != value:
                    raise ValueError(
                        f"shards disagree on non-summable key {key!r}: "
                        f"{merged[key]!r} vs {value!r}"
                    )
                merged[key] = value
            elif key in merged:
                merged[key] += value
            else:
                merged[key] = value
    return merged


def run_sharded(
    job: Callable[..., dict],
    specs: Iterable[ShardSpec],
    *args: Any,
    merge: Callable[[Sequence[dict]], dict] = merge_shard_metrics,
) -> dict:
    """Run ``job(spec, *args)`` for every shard and merge the results.

    *job* must be a module-level function returning a metrics dict
    (pmap's picklability contract).  Extra ``*args`` are passed to every
    shard unchanged.  The merged dict gains ``shards`` (shard count) and
    ``per_shard`` (the raw per-shard dicts, in shard order) so callers
    can audit the merge.
    """
    specs = list(specs)
    results = pmap(job, [(spec, *args) for spec in specs])
    merged = merge(results)
    merged["shards"] = len(specs)
    merged["per_shard"] = results
    return merged
