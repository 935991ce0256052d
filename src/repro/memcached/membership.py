"""Live MCD membership: online add/drain/remove with warm hand-over.

The MCD array is never a frozen list: every
:class:`~repro.memcached.client.MemcacheClient` routes over a
:class:`McdMembership`, which tracks every daemon ever attached under a
*stable node id* and a lifecycle state:

    joining -> warming -> live -> draining -> detached

* **warming** — in the key ring (reads and writes target it) while a
  *forwarding window* is open: a miss on a remapped key consults the
  old owner before falling through to the server, and writes fan out to
  both owners so the old copy can never go stale while it is reachable.
* **live** — steady state.
* **draining** — out of the key ring (new reads/writes remap to the
  successors immediately) but still attached: it serves forward probes
  and background migration until its window closes, then detaches.
* **detached** — unreachable; the daemon's node is failed.

An unplanned ``remove`` jumps straight to *detached* — exactly the
degradation surface of a crash (PR 3), minus the restart.

Only the ketama selector supports warm hand-over: its stable-identity
ring (:meth:`KetamaSelector.owner`) lets both the client and the
controller compute a key's owner under any past membership, which is
what the forwarding window and the migration/cleanup passes need.  With
a positional selector (the "naive mod-hash" comparison case) membership
changes still work, but every resize is cold: no window opens and the
whole map renumbers.

Coherence invariant: after a window closes, a key's value lives only on
its current owner.  Three mechanisms uphold it: (1) window writes fan
out to both owners, (2) backfill/migration copies use ``add``
(store-if-absent) so they never clobber a fresher window write, and
(3) the window-close cleanup walks the old owners and deletes every key
they no longer own.  Consecutive membership changes must therefore be
spaced further apart than a forwarding window — :meth:`FaultSchedule.add`
validates the scheduled cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.memcached.daemon import SERVICE, MemcachedDaemon, command_cost
from repro.memcached.hashing import KetamaSelector, ServerSelector
from repro.net.fabric import Network, Node
from repro.net.rpc import Endpoint, RpcError
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import ComponentMetrics
    from repro.sim.core import Simulator

# Lifecycle states.
JOINING = "joining"
WARMING = "warming"
LIVE = "live"
DRAINING = "draining"
DETACHED = "detached"

#: States whose node ids are in the key ring (reads AND writes map here).
RING_STATES = (WARMING, LIVE)


@dataclass
class Member:
    """One MCD's membership record; ``node_id`` never changes."""

    node_id: int
    daemon: MemcachedDaemon
    state: str = LIVE


@dataclass
class ForwardingWindow:
    """A bounded period after a membership change during which the old
    owner of a remapped key is still consulted/updated.

    ``ring_before`` is the ring id set *before* the change; the old
    owner of any key is ``ketama.owner(key, ring_before)``.
    """

    kind: str  # "add" | "drain"
    subject: int  # the added / draining node id
    ring_before: tuple[int, ...]
    until: float

    def active(self, now: float) -> bool:
        return now < self.until


class McdMembership:
    """The live MCD set: stable ids, lifecycle states, open windows.

    ``epoch`` bumps whenever the *view* changes (ring membership or
    reachability); clients cache the ring per epoch and resync lazily
    (:meth:`MemcacheClient._resync`), so the static case — ids
    ``0..n-1``, epoch 0, no windows: what a bank nobody resizes is —
    costs one integer compare per op.

    The membership also keeps the epoch's **owner tables**
    (:meth:`owner_table`): one memo of key -> primary node id per
    selector instance, shared by every client that routes with that
    instance.  A bump drops them all and starts new ones, so no pick
    made over an old ring survives into the new epoch.
    """

    def __init__(self, daemons: list[MemcachedDaemon]) -> None:
        self.members: dict[int, Member] = {
            i: Member(i, d, LIVE) for i, d in enumerate(daemons)
        }
        self._next_id = len(daemons)
        self.epoch = 0
        self.windows: list[ForwardingWindow] = []
        self._ring_cache: Optional[tuple[int, ...]] = None
        #: selector -> {key: primary node id over this epoch's ring}.
        self._owner_tables: dict[ServerSelector, dict[str, int]] = {}

    # -- views ---------------------------------------------------------------
    @property
    def ring_ids(self) -> tuple[int, ...]:
        """Sorted node ids currently in the key ring (warming + live)."""
        if self._ring_cache is None:
            self._ring_cache = tuple(
                sorted(i for i, m in self.members.items() if m.state in RING_STATES)
            )
        return self._ring_cache

    def reachable_ids(self) -> tuple[int, ...]:
        """Sorted node ids that still accept RPCs (everything but detached)."""
        return tuple(sorted(i for i, m in self.members.items() if m.state != DETACHED))

    def daemon(self, node_id: int) -> MemcachedDaemon:
        return self.members[node_id].daemon

    def reachable(self, node_id: int) -> bool:
        m = self.members.get(node_id)
        return m is not None and m.state != DETACHED

    def owner_table(self, selector: ServerSelector) -> dict[str, int]:
        """The current epoch's memo of key -> primary node id for
        *selector* (keyed by the instance): every client routing with
        that selector fills and reads the one table.  It holds only
        what the selector picks over :attr:`ring_ids`; a client must
        take the table in the same step as the ring (:meth:`_bump`
        replaces it, never clears it, so a client still holding the
        previous epoch's table cannot write into this one)."""
        return self._owner_tables.setdefault(selector, {})

    # -- transitions ---------------------------------------------------------
    def _bump(self) -> None:
        self.epoch += 1
        self._ring_cache = None
        self._owner_tables = {}

    def alloc_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def attach(self, node_id: int, daemon: MemcachedDaemon, state: str = WARMING) -> Member:
        if node_id in self.members:
            raise ValueError(f"node id {node_id} already attached")
        m = Member(node_id, daemon, state)
        self.members[node_id] = m
        self._bump()
        return m

    def set_state(self, node_id: int, state: str) -> None:
        m = self.members[node_id]
        if m.state == state:
            return
        view_changed = (m.state in RING_STATES) != (state in RING_STATES) or (
            (m.state == DETACHED) != (state == DETACHED)
        )
        m.state = state
        if view_changed:
            self._bump()

    # -- forwarding windows --------------------------------------------------
    def open_window(self, kind: str, subject: int, ring_before: tuple[int, ...], until: float) -> None:
        self.windows.append(ForwardingWindow(kind, subject, ring_before, until))

    def close_window(self, subject: int) -> None:
        self.windows = [w for w in self.windows if w.subject != subject]

    def forward_source(
        self, key: str, owner_id: int, ketama: KetamaSelector, now: float
    ) -> Optional[int]:
        """The old owner to consult on a miss of *key*, or None.

        * add window: keys remapped *onto* the new node may still live
          on their pre-add owner.
        * drain window: keys remapped *off* the draining node may still
          live on it.
        """
        for w in self.windows:
            if not w.active(now):
                continue
            if w.kind == "add" and owner_id == w.subject:
                prev = ketama.owner(key, w.ring_before)
                if prev != owner_id and self.reachable(prev):
                    return prev
            elif w.kind == "drain" and owner_id != w.subject:
                if ketama.owner(key, w.ring_before) == w.subject and self.reachable(w.subject):
                    return w.subject
        return None

    def window_peers(
        self, key: str, owner_id: int, ketama: KetamaSelector, now: float
    ) -> list[int]:
        """Extra owners a write/delete of *key* must also reach.

        While a window is open the old copy is a legitimate read source
        (via :meth:`forward_source`), so mutations must keep it in sync
        — the purge fan-out invariant extended across the resize.
        """
        peers: list[int] = []
        for w in self.windows:
            if not w.active(now):
                continue
            src = None
            if w.kind == "add" and owner_id == w.subject:
                prev = ketama.owner(key, w.ring_before)
                if prev != owner_id:
                    src = prev
            elif w.kind == "drain" and owner_id != w.subject:
                if ketama.owner(key, w.ring_before) == w.subject:
                    src = w.subject
            if src is not None and src not in peers and self.reachable(src):
                peers.append(src)
        return peers


class ElasticController:
    """Executes membership changes: spawns daemons, opens/settles
    forwarding windows, paces background migration, and enforces the
    "value only on its current owner" invariant at window close.

    Runs on its own ops node so migration traffic shares the cache
    network (and its failures) with client traffic, but never borrows a
    client's CPU.  All RPC errors are caught: a crashed source simply
    loses its warm copies (demand misses re-fill from the server),
    which is PR 3's degradation contract.
    """

    def __init__(
        self,
        sim: "Simulator",
        membership: McdMembership,
        net: Network,
        *,
        node_factory: Callable[[int], MemcachedDaemon],
        selector_name: str = "ketama",
        metrics: Optional["ComponentMetrics"] = None,
        tracer=NULL_TRACER,
        migrate_batch: int = 64,
        migrate_interval: float = 1e-4,
    ) -> None:
        self.sim = sim
        self.membership = membership
        self.node_factory = node_factory
        self.metrics = metrics
        self.migrate_batch = migrate_batch
        self.migrate_interval = migrate_interval
        self._ketama = KetamaSelector() if selector_name == "ketama" else None
        self.endpoint = Endpoint(net, Node(sim, "mcd-ops"), tracer=tracer)

    def _inc(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, by)

    # -- membership operations ----------------------------------------------
    def add(self, *, window: float, migrate: bool = False) -> int:
        """Grow the tier by one MCD; returns its node id.

        The new node enters the ring immediately (*warming*): remapped
        reads miss into the forwarding window, remapped writes fan out
        to both owners.  With ``migrate`` a paced copier walks the old
        owners' remapped keys in the background.
        """
        m = self.membership
        ring_before = m.ring_ids
        nid = m.alloc_id()
        daemon = self.node_factory(nid)
        self._inc("adds")
        if self._ketama is None or not ring_before:
            # No consistent ring -> no warm hand-over; the map renumbers
            # and the resize is cold by construction.
            m.attach(nid, daemon, LIVE)
            return nid
        m.attach(nid, daemon, WARMING)
        until = self.sim.now + window
        m.open_window("add", nid, ring_before, until)
        self.sim.process(
            self._settle_add(nid, ring_before, until, migrate), name=f"elastic.add.{nid}"
        )
        return nid

    def drain(self, node_id: int, *, window: float, migrate: bool = False) -> None:
        """Planned removal: leave the ring now, detach after the window.

        New stores stop immediately (the id leaves ``ring_ids`` so reads
        and writes remap to the successors); for the window's duration
        the node remains a forwarding/migration source, then detaches
        and its node is failed.
        """
        m = self.membership
        member = m.members.get(node_id)
        if member is None:
            raise ValueError(f"no such node id {node_id}")
        if member.state not in RING_STATES:
            raise ValueError(f"cannot drain node {node_id} in state {member.state!r}")
        ring_before = m.ring_ids
        if len(ring_before) < 2:
            raise ValueError("cannot drain the last ring member")
        m.set_state(node_id, DRAINING)
        self._inc("drains")
        until = self.sim.now + window
        if self._ketama is not None:
            m.open_window("drain", node_id, ring_before, until)
        self.sim.process(
            self._settle_drain(node_id, until, migrate), name=f"elastic.drain.{node_id}"
        )

    def remove(self, node_id: int) -> None:
        """Unplanned removal: instant detach, contents lost.

        Degrades exactly like a crash — every key the node owned misses
        until demand re-fills it from the server — except the node never
        comes back.
        """
        m = self.membership
        member = m.members.get(node_id)
        if member is None:
            raise ValueError(f"no such node id {node_id}")
        if member.state == DETACHED:
            raise ValueError(f"node {node_id} is already detached")
        if len(m.ring_ids) < 2 and member.state in RING_STATES:
            raise ValueError("cannot remove the last ring member")
        m.set_state(node_id, DETACHED)
        member.daemon.kill()
        self._inc("removes")

    # -- settle processes ----------------------------------------------------
    def _settle_add(self, nid: int, ring_before: tuple[int, ...], until: float, migrate: bool):
        if migrate:
            yield from self._migrate_into(nid, ring_before, until)
        delay = until - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        yield from self._cleanup_sources(ring_before)
        self.membership.set_state(nid, LIVE)
        self.membership.close_window(nid)
        self._inc("windows_closed")

    def _settle_drain(self, node_id: int, until: float, migrate: bool):
        if migrate and self._ketama is not None:
            yield from self._migrate_out(node_id, until)
        delay = until - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        self.membership.set_state(node_id, DETACHED)
        self.membership.close_window(node_id)
        self.membership.daemon(node_id).kill()
        self._inc("windows_closed")

    # -- migration / cleanup -------------------------------------------------
    def _rpc(self, node_id: int, op: str, payload):
        daemon = self.membership.daemon(node_id)
        reply = yield from self.endpoint.call(
            daemon.node, SERVICE, (op, payload), *command_cost(op, payload)
        )
        return reply

    def _migrate_into(self, nid: int, sources: tuple[int, ...], deadline: float):
        """Copy every key the new node now owns off its old owner —
        paced, deadline-bounded, delete-after-copy."""
        assert self._ketama is not None
        for src in sources:
            cursor = 0
            while True:
                if self.sim.now >= deadline:
                    self._inc("migrations_truncated")
                    return
                try:
                    next_cursor, entries = yield from self._rpc(
                        src, "scan", (cursor, self.migrate_batch, True)
                    )
                except RpcError:
                    self._inc("migration_errors")
                    break
                moved: list[str] = []
                for key, value, nbytes, flags, ttl in entries:
                    if self._ketama.owner(key, self.membership.ring_ids) != nid:
                        continue
                    try:
                        # add, not set: a window write may already have
                        # put a fresher value on the new owner.
                        yield from self._rpc(nid, "add", (key, value, nbytes, flags, ttl))
                    except RpcError:
                        self._inc("migration_errors")
                        return
                    moved.append(key)
                if moved:
                    try:
                        yield from self._rpc(src, "delete_multi", moved)
                    except RpcError:
                        self._inc("migration_errors")
                    self._inc("migrated_keys", len(moved))
                if next_cursor == 0:
                    break
                # The seq-anchored cursor is stable under the deletes we
                # just issued — resume exactly where the page ended.
                cursor = next_cursor
                yield self.sim.timeout(self.migrate_interval)

    def _migrate_out(self, node_id: int, deadline: float):
        """Copy a draining node's whole keyspace to the successors."""
        assert self._ketama is not None
        cursor = 0
        while True:
            if self.sim.now >= deadline:
                self._inc("migrations_truncated")
                return
            try:
                next_cursor, entries = yield from self._rpc(
                    node_id, "scan", (cursor, self.migrate_batch, True)
                )
            except RpcError:
                self._inc("migration_errors")
                return
            moved: list[str] = []
            for key, value, nbytes, flags, ttl in entries:
                dest = self._ketama.owner(key, self.membership.ring_ids)
                try:
                    yield from self._rpc(dest, "add", (key, value, nbytes, flags, ttl))
                except RpcError:
                    self._inc("migration_errors")
                    continue
                moved.append(key)
            if moved:
                try:
                    yield from self._rpc(node_id, "delete_multi", moved)
                except RpcError:
                    self._inc("migration_errors")
                self._inc("migrated_keys", len(moved))
            if next_cursor == 0:
                return
            cursor = next_cursor
            yield self.sim.timeout(self.migrate_interval)

    def _cleanup_sources(self, sources: tuple[int, ...]):
        """Window-close GC: delete from each old owner every key it no
        longer owns, restoring "value only on the current owner"."""
        assert self._ketama is not None
        ring = self.membership.ring_ids
        for src in sources:
            if not self.membership.reachable(src):
                continue
            orphans: list[str] = []
            cursor = 0
            while True:
                try:
                    next_cursor, entries = yield from self._rpc(
                        src, "scan", (cursor, self.migrate_batch, False)
                    )
                except RpcError:
                    self._inc("cleanup_errors")
                    orphans = []
                    break
                for key, _value, _nbytes, _flags, _ttl in entries:
                    if self._ketama.owner(key, ring) != src:
                        orphans.append(key)
                if next_cursor == 0:
                    break
                cursor = next_cursor
            for i in range(0, len(orphans), self.migrate_batch):
                batch = orphans[i : i + self.migrate_batch]
                try:
                    yield from self._rpc(src, "delete_multi", batch)
                except RpcError:
                    self._inc("cleanup_errors")
                    break
                self._inc("cleanup_deleted", len(batch))
