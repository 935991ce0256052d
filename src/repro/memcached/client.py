"""libmemcache-style client: server selection, multi-get, failure
transparency.

It sends only what IMCa sends: CMCache's gets (``get_multi``), SMCache's
pushes and purges (``set``, ``set_multi``, ``delete_multi``), a
forwarding window's backfill (``add``) and the rejoin probe
(``flush_all``).

The client owns the key→server mapping (CRC32 by default, modulo for
the §5.5 striping experiment) and degrades gracefully when daemons die:
a failed server makes gets miss and stores no-ops, never an error —
"IMCa can transparently account for failures in MCDs" (§4.4).

Under a testbed's :class:`~repro.net.rpc.ResilienceConfig` the client
also *tracks* daemon health: every RPC has a :data:`MCD_TIMEOUT`
deadline, and after :data:`EJECT_AFTER` consecutive RPC errors a server
is ejected and skipped outright (zero simulated cost — the fast
degraded path), then re-probed after the config's ``cooldown``.
Rejoin mandates a purge (``flush_all``), and readmits only when it
answers, so a daemon that merely blinked — recovered without a cold
restart — can never serve pre-crash data.

Every key has an **owner list** (:meth:`MemcacheClient.owners`):
``[primary, *others]``, by stable node id, over the bank's
:class:`~repro.memcached.membership.McdMembership`.  The primary is the
selector's pick over the current key ring; the others are the key's
replicas (``replicas > 1``: R distinct owners via a ketama-ring walk)
or, while a resize's forwarding window is open, its old owners.  An
unreplicated key outside a window — the paper's configuration — is the
list of one.  Reads go to one owner (the primary, or a seeded
round-robin over the live replicas; a miss inside a window consults the
old owner and backfills the new one).  Stores and deletes reach
**every** owner, because a purge that skips an owner leaves stale data
serveable.  A bank built from a plain daemon list is the membership
with ids ``0..n-1`` and no events.

The batch ops share one shape: ``get_multi``, ``set_multi`` and
``delete_multi`` group their keys by owner and send **one request per
owner**, the owners concurrently (:meth:`MemcacheClient._legs`), so a
batch costs one round trip of simulated time however many MCDs it
spans; a ``set`` with several owners (:meth:`_fanout`) is the same
legs with one payload.  A leg that fails books one ``errors`` and
answers None — it costs that owner's share and nothing else.  A leg is
a :class:`~repro.net.rpc.Leg`: no generator, just its request booked
and its wake minted; at the request's arrival it runs the command,
books the response and *lands* the reply on the join, so K legs cost
K + 1 scheduler entries: one per request and the join's.  A mutation
with a single leg runs in the caller's frame and mints no join entry,
which costs the same 2; ``get_multi`` always joins (for span
attribution).  Under a resilience config every MCD RPC is a leg
that wakes when its outcome is known, to book it (:class:`_TrackedLeg`).

The key is the only routing input: a data key names its block, so no
caller passes a block ordinal beside it.  A key's primary owner is
worked out once per membership epoch (:meth:`MemcacheClient._primary`):
the selector's pick is memoised by key in the membership's owner table
for the client's selector instance (:meth:`McdMembership.owner_table`).
Clients that share a membership and a selector instance — every client
of a testbed — share the table; the membership drops it with the
epoch's ring.

Reads are **singleflighted** per client (DESIGN §15): a ``get`` or
``get_multi`` that finds its key already being fetched parks on that
fetch.  The table entry is a bare ``None`` until somebody does, so a
fetch nobody shares costs no event and no scheduler entry.

Health decisions read the clock at ``departure(sim)``, not ``now``: an
op running ahead of its FUSE crossing decides whether an MCD is still
ejected as of the instant its request may leave (DESIGN §7, "The FUSE
crossing runs ahead").
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Generator, Mapping, Optional

from repro.memcached.daemon import MemcachedDaemon, SERVICE, command_cost
from repro.memcached.engine import McValue
from repro.memcached.hashing import (
    Crc32Selector,
    KetamaSelector,
    ReplicatedSelector,
    ServerSelector,
)
from repro.memcached.membership import LIVE, McdMembership
from repro.net.rpc import (
    Conn, Endpoint, Leg, ResilienceConfig, RpcError, RpcUnavailable, TimedLeg,
)
from repro.sim.events import Event
from repro.sim.process import Join, departure
from repro.util.stats import Counter, Tally


#: Under a resilience config: each MCD RPC's deadline in seconds, from
#: when its request may leave (a missed one counts as an error) ...
MCD_TIMEOUT = 2e-3
#: ... and the consecutive errors that eject a daemon.  The probe that
#: readmits it after the cooldown always wipes it first (the coherence
#: guarantee): cold-start semantics even when the daemon recovered with
#: its memory intact.
EJECT_AFTER = 2


class _ServerHealth:
    """Per-server error tracking (ejected when ``ejected_until >= 0``).

    ``probing`` marks an in-flight half-open rejoin probe: concurrent
    callers that find the cooldown elapsed must not start a second
    probe (double purge, double-counted rejoin) — they skip the server
    until the probe settles.
    """

    __slots__ = ("consecutive_errors", "ejected_until", "probing")

    def __init__(self) -> None:
        self.consecutive_errors = 0
        self.ejected_until = -1.0
        self.probing = False


#: Singleflight sentinel published to followers when the leader's fetch
#: failed or was aborted: a follower must issue its own fetch rather
#: than inherit a result poisoned by the leader's (possibly
#: server-specific) failure.
_SF_FAILED = object()

#: The span a batch leg opens on a traced client.
_LEG_SPAN = ("mcd", "mc.batch")
#: A store item's key: ``(key, value, nbytes, flags, ttl)``.
_ITEM_KEY = itemgetter(0)


class MemcacheClient(Tally):
    """A client node's view of the MCD array.  Each MCD RPC is priced
    once, here (:func:`command_cost`); a ``get_multi`` books both
    ``hits`` and ``misses``, and a ``delete_multi`` its ``deletes``, a
    zero included."""

    TALLY = ("hits", "misses", "sets", "deletes")

    def __init__(
        self,
        endpoint: Endpoint,
        servers: list[MemcachedDaemon],
        selector: Optional[ServerSelector] = None,
        resilience: Optional[ResilienceConfig] = None,
        replicas: int = 1,
        rr_seed: int = 0,
        membership: Optional[McdMembership] = None,
    ) -> None:
        if not servers:
            raise ValueError("need at least one memcached server")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1: {replicas}")
        self.endpoint = endpoint
        self.selector = selector or Crc32Selector()
        #: Health tracking and MCD deadlines, when not None.
        self.resilience = resilience
        self.replicas = replicas
        #: The bank, by stable node id ("server index" everywhere below
        #: means node id): the shared live membership, or the static one
        #: — ids ``0..n-1``, epoch 0, no windows — over a plain list.
        self.membership = membership or McdMembership(servers)
        #: Set when the primary selector is the consistent ring — the
        #: only selector that can compute a key's *old* owner, which is
        #: what forwarding windows need.
        self._ketama: Optional[KetamaSelector] = (
            self.selector if isinstance(self.selector, KetamaSelector) else None
        )
        #: The replica map; None at R=1 (every key has one replica).
        self._replication: Optional[ReplicatedSelector] = (
            ReplicatedSelector(self.selector, replicas) if replicas > 1 else None
        )
        #: Seeded round-robin read spreading (per-client seed, so
        #: different clients start on different replicas; per-key
        #: cursors so every key's reads split evenly).
        self._rr = rr_seed
        self._rr_by_key: dict[str, int] = {}
        self._health: dict[int, _ServerHealth] = defaultdict(_ServerHealth)
        #: node id -> the endpoint's :class:`~repro.net.rpc.Conn` to that
        #: daemon, resolved on first use (ids are never reused).
        self._conns: dict[int, Conn] = {}
        #: Singleflight (DESIGN §15): every key this client is fetching
        #: right now.  The entry is None until a second caller wants the
        #: same key and swaps in the Event it parks on; the fetcher
        #: publishes only if one is there, so a fetch nobody shares
        #: costs a dict slot and nothing else.
        self._inflight: dict[str, Optional[Event]] = {}
        self.stats = self._tally(Counter())
        # Spans share the endpoint's tracer; MCD time observed from the
        # client side (RPC wait included) is attributed to the mcd tier.
        self.tracer = endpoint.tracer
        self._resync()

    # -- plumbing ------------------------------------------------------------
    def _resync(self) -> None:
        """Cache the membership's view for its current epoch: the key
        ring, in ring order its daemons, and the epoch's owner table for
        this client's selector.  Every routing entry point compares
        ``_epoch`` first, so a bank nobody resizes pays one integer
        compare per op."""
        m = self.membership
        self._epoch = m.epoch
        self._ring = m.ring_ids
        self.servers = [m.daemon(i) for i in self._ring]
        #: key -> primary owner over this epoch's ring (:meth:`_primary`),
        #: shared with every client routing by the same selector.
        self._primaries = m.owner_table(self.selector)

    def add_server(self, server: MemcachedDaemon) -> None:
        """Grow the cache bank (§4.4: "Additional caching nodes can be
        easily added") — cold: no forwarding window opens.  Keys re-map
        according to the selector — modulo N remaps almost everything;
        ketama only ~1/(N+1).  Every client sharing the membership sees
        the new daemon."""
        self.membership.attach(self.membership.alloc_id(), server, LIVE)

    def owners(self, key: str) -> list[int]:
        """``[primary, *others]``: every daemon a mutation of *key* must
        reach.  The others are the key's replicas or, inside a
        forwarding window, its old owners — until the window closes an
        old owner is a legitimate read source (:meth:`_forward_get`), so
        a store or delete that skipped it would leave stale data
        serveable.  (Replication takes precedence: a replicated bank is
        never resized warm.)"""
        m = self.membership
        if self._epoch != m.epoch:
            self._resync()
        if self._replication is not None:
            ring = self._ring
            return [ring[i] for i in self._replication.replicas_for(key, len(ring))]
        primary = self._primaries.get(key)
        if primary is None:
            primary = self._primary(key)
        if self._ketama is not None and m.windows:
            peers = m.window_peers(key, primary, self._ketama, self.endpoint.net.sim.now)
            if peers:
                return [primary, *peers]
        return [primary]

    def _sole_batches(self, entries: list, keyed: bool) -> Optional[dict[int, list]]:
        """*entries* — keys, or items whose key comes first (*keyed*) —
        grouped by owner in order, when every key's owner list is its
        primary alone: no replicas and no forwarding window open.  That
        is :meth:`owners`'s epoch check and mode test, made once for the
        batch; each key is then one probe of the primary memo.  None
        otherwise: the caller walks each key's owner list."""
        m = self.membership
        if self._epoch != m.epoch:
            self._resync()
        if self._replication is not None or (self._ketama is not None and m.windows):
            return None
        primaries = self._primaries
        batches: dict[int, list] = {}
        for key, entry in zip(map(_ITEM_KEY, entries) if keyed else entries, entries):
            idx = primaries.get(key)
            if idx is None:
                idx = self._primary(key)
            batches.setdefault(idx, []).append(entry)
        return batches

    def _primary(self, key: str) -> int:
        """The selector's pick of *key*'s primary over the current ring
        (the caller has resynced the epoch), memoised in
        ``_primaries``.  Unreplicated: a ring walk, or, for a positional
        selector, its index into the ring — a membership change
        renumbers the map (the naive-resize comparison case)."""
        ring = self._ring
        if self._ketama is not None:
            primary = self._ketama.owner(key, ring)
        else:
            primary = ring[self.selector.select(key, len(ring))]
        self._primaries[key] = primary
        return primary

    def _read_memo(self) -> Mapping[str, int]:
        """What a read probes first for the server of a key: the primary
        memo when reads go to the primary (an unreplicated bank), else
        nothing.  A miss there is :meth:`_read_idx`.  Resyncs the epoch,
        once per request."""
        if self._epoch != self.membership.epoch:
            self._resync()
        return self._primaries if self._replication is None else {}

    def _read_idx(self, key: str) -> int:
        """The server a read of *key* goes to: its primary or, with
        replication, a seeded per-key round-robin over the replicas not
        currently sitting out an ejection cooldown (all of them, if
        every replica is ejected).  The cursor is per key —
        a cursor shared across keys correlates with periodic batch
        shapes and can park a hot key on one replica, reshuffling load
        instead of splitting it; per-key rotation splits every key's
        reads exactly 1/R.  Cursor memory is one small int per distinct
        key this client has read (bounded by its keyspace)."""
        if self._replication is None:
            return self._primary(key)
        replicas = self.owners(key)
        live = [i for i in replicas if not self._cooling(i)]
        if not live:
            live = replicas
        elif len(live) < len(replicas):
            self.stats.inc("replica_failovers", len(replicas) - len(live))
            if self.tracer.oplog is not None:
                self.tracer.op_count(
                    "replica_failovers", len(replicas) - len(live)
                )
        cursor = self._rr_by_key.get(key, self._rr)
        self._rr_by_key[key] = cursor + 1
        choice = live[cursor % len(live)]
        if choice != replicas[0]:
            self.stats.inc("replica_reads")
        return choice

    def _cooling(self, idx: int) -> bool:
        """True while *idx* is ejected and not yet probeable."""
        if self.resilience is None:
            return False
        h = self._health[idx]
        return h.ejected_until >= 0.0 and (
            departure(self.endpoint.net.sim) < h.ejected_until or h.probing
        )

    def ejected(self, idx: int) -> bool:
        """Whether server *idx* is currently ejected (for observers)."""
        return self._health[idx].ejected_until >= 0.0

    def _conn(self, idx: int) -> Conn:
        """The connection to daemon *idx*, resolved once."""
        conn = self._conns.get(idx)
        if conn is None:
            node = self.membership.members[idx].daemon.node
            conn = self._conns[idx] = self.endpoint.conn(node, SERVICE)
        return conn

    def _call(self, idx: int, op: str, payload: Any) -> Generator:
        """One MCD RPC; raises :class:`RpcError` when it failed.  With no
        resilience config the generator returned is :meth:`Endpoint.call`'s
        own.  Under one it waits on an inline :class:`_TrackedLeg`, which
        books its error on a counter of its own: the caller books it."""
        if self.resilience is None:
            req_size, cpu = command_cost(op, payload)
            return self.endpoint.call(
                self.membership.members[idx].daemon.node, SERVICE, (op, payload), req_size, cpu
            )
        return self._call_leg(idx, op, payload)

    def _call_leg(self, idx: int, op: str, payload: Any) -> Generator:
        sim = self.endpoint.net.sim
        join, failed, parent = Join(sim, 1), Counter(), sim._active_process
        try:
            _TrackedLeg(self, idx, op, payload, join, 0, "mc-call", parent, failed, True)
        finally:
            sim._active_process = parent
        (reply,) = yield join
        if failed.get("errors"):
            raise RpcUnavailable(f"{op} on MCD {idx} failed")
        return reply

    def _note_failure(self, h: _ServerHealth) -> None:
        h.consecutive_errors += 1
        if h.consecutive_errors >= EJECT_AFTER and h.ejected_until < 0.0:
            h.ejected_until = self.endpoint.net.sim.now + self.resilience.cooldown
            h.consecutive_errors = 0
            self.stats.inc("ejections")
            if self.tracer.oplog is not None:
                self.tracer.op_count("mcd_ejections")

    # -- retrieval -------------------------------------------------------------
    def get(self, key: str) -> Generator:
        """Fetch one value; returns :class:`McValue` or None on miss.

        A dead server counts as a miss (plus an ``errors`` stat).

        Concurrent gets of one key collapse onto one fetch
        (singleflight): the first caller — the *leader* — marks the key
        in flight and issues the RPC; a caller that finds the mark — a
        *follower* — parks on the flight's event and inherits the
        result.  A clean miss is a real result (every caller would have
        missed too), but a failed or aborted fetch re-disperses: each
        follower then issues its own fetch, outside the table, so a
        poisoned result is never shared and nobody follows twice.
        Followers book their own ``hits``/``misses``.
        """
        inflight = self._inflight
        leading = key not in inflight
        if leading:
            inflight[key] = None
        else:
            payload = yield self._follow(key)
            if payload is not _SF_FAILED:
                if payload is not None:
                    self._n_hits += 1
                else:
                    self._n_misses += 1
                return payload
            self._note_redispersed()
        published = _SF_FAILED
        try:
            # `_read_memo`, written out: a stat hit is one get.
            if self._epoch != self.membership.epoch:
                self._resync()
            idx = self._primaries.get(key) if self._replication is None else None
            if idx is None:
                idx = self._read_idx(key)
            failed = False
            try:
                if self.tracer.enabled:
                    with self.tracer.span("mcd", "mc.get"):
                        reply = yield from self._call(idx, "get_multi", [key])
                else:
                    reply = yield from self._call(idx, "get_multi", [key])
            except RpcError:
                failed = True
                self.stats.inc("errors")
                reply = {}
            value = reply.get(key)
            if value is None and self.membership.windows:
                value = yield from self._forward_get(key, idx)
            if not failed:
                published = value
        finally:
            if leading:
                flight = inflight.pop(key)
                if flight is not None:
                    flight.succeed(published)
        if value is not None:
            self._n_hits += 1
        else:
            self._n_misses += 1
        return value

    def _follow(self, key: str) -> Event:
        """The event a follower of *key*'s fetch parks on, minted by the
        first follower to arrive."""
        flight = self._inflight[key]
        if flight is None:
            flight = self._inflight[key] = Event(self.endpoint.net.sim)
        self.stats.inc("sf_follows")
        if self.tracer.oplog is not None:
            self.tracer.op_count("fastpath_sf_follows")
        return flight

    def _note_redispersed(self) -> None:
        self.stats.inc("sf_redispersed")
        if self.tracer.oplog is not None:
            self.tracer.op_count("fastpath_sf_redispersed")

    def _forward_get(self, key: str, owner: int) -> Generator:
        """Demand backfill: a miss on a remapped key during a forwarding
        window consults the old owner before falling through to the
        server, and copies any hit onto the current owner.

        The copy uses ``add`` (store-if-absent): a window write may
        already have placed a fresher value on the new owner, and the
        stale forwarded copy must never clobber it.  Returns the value
        or None; the caller books the hit/miss.
        """
        if self._ketama is None:
            return None
        src = self.membership.forward_source(
            key, owner, self._ketama, self.endpoint.net.sim.now
        )
        if src is None:
            return None
        self.stats.inc("forward_probes")
        if self.tracer.oplog is not None:
            self.tracer.op_count("forward_probes")
            self.tracer.op_tag("resize-forward")
        try:
            reply = yield from self._call(src, "get_multi", [key])
        except RpcError:
            self.stats.inc("errors")
            return None
        value = reply.get(key)
        if value is None:
            return None
        self.stats.inc("backfill_hits")
        if self.tracer.oplog is not None:
            self.tracer.op_count("backfill_hits")
            self.tracer.op_tag("resize-backfill")
        try:
            ok = yield from self._call(
                owner, "add", (key, value.value, value.nbytes, value.flags, 0)
            )
            if ok:
                self.stats.inc("backfill_copies")
        except RpcError:
            self.stats.inc("errors")
        return value

    def get_multi(self, keys: list[str]) -> Generator:
        """Fetch many keys, batched one request per server.

        Returns ``{key: McValue}`` containing only the hits.  Batches to
        distinct servers are issued back-to-back (pipelined on the
        client NIC) and all responses are awaited.  Duplicate keys are
        deduplicated before batching — the result dict can only hold one
        entry per key, so counting misses as ``len(keys) - len(out)``
        would book every duplicated hit as a phantom miss.  A key this
        client is already fetching rides that fetch instead of joining
        a batch; the keys a batch does fetch are its to publish (see
        :meth:`get`).

        Per key there is one loop, the routing one: the riders are found
        by one set test against the in-flight table, and the fetched
        keys are marked in flight in one update and unmarked in one
        pass.
        """
        inflight = self._inflight
        unique = dict.fromkeys(keys)
        #: Keys somebody is already fetching (empty: nobody is).
        ride = inflight.keys() & unique if inflight else ()
        #: key -> flight for every key that rides, in key order.
        riders: dict[str, Event] = {}
        by_server: dict[int, list[str]] = {}
        # `_read_memo`, written out: every cached read is one multi-get.
        if self._epoch != self.membership.epoch:
            self._resync()
        memo = self._primaries if self._replication is None else {}
        for key in unique:
            if key in ride:
                # Ride the in-flight fetch instead of re-issuing it.
                riders[key] = self._follow(key)
                continue
            idx = memo.get(key)
            if idx is None:
                idx = self._read_idx(key)
            batch = by_server.get(idx)
            if batch is None:
                by_server[idx] = [key]
            else:
                batch.append(key)
        # Every key not riding is this call's to fetch: marked at once.
        if ride:
            inflight.update(dict.fromkeys(k for k in unique if k not in ride))
        else:
            inflight.update(unique)
        out: dict[str, McValue] = {}
        results: list = []
        completed = False
        try:
            # Nothing left to fetch (every key rides a flight): no join.
            if by_server:
                # Always a join, even over one server.  A landed leg
                # makes a one-leg join cost what an inline call would;
                # the join stays because its ``mc.batch`` leg is what
                # the tracer books the fetch's MCD time to.
                if self.tracer.enabled:
                    with self.tracer.span("mcd", "mc.get_multi"):
                        results = yield self._fork("get_multi", by_server.items(), "mc-multiget")
                else:
                    results = yield self._fork("get_multi", by_server.items(), "mc-multiget")
                for partial in results:
                    if partial is not None:
                        out.update(partial)
            if self.membership.windows and len(out) < len(unique):
                for idx, batch in by_server.items():
                    for key in batch:
                        if key in out:
                            continue
                        value = yield from self._forward_get(key, idx)
                        if value is not None:
                            out[key] = value
            completed = True
        finally:
            # Unmark our fetches in one pass, then publish them, batch
            # by batch, to the followers that parked on them (a failed
            # batch re-disperses its riders, never a result — and an
            # aborted multi-get never publishes a phantom miss).
            flights = list(map(inflight.pop, chain.from_iterable(by_server.values())))
            if any(flights):
                parked = iter(flights)
                for n, batch in enumerate(by_server.values()):
                    ok = completed and results[n] is not None
                    for key, flight in zip(batch, parked):
                        if flight is not None:
                            flight.succeed(out.get(key) if ok else _SF_FAILED)
        if riders:
            results = yield self.endpoint.net.sim.all_of(list(riders.values()))
            for key, ev in riders.items():
                payload = results[ev]
                if payload is _SF_FAILED:
                    # The flight we rode failed: fetch the key ourselves,
                    # outside the table (nobody follows twice).  Keep in
                    # step with the fetch body of get(), which stays inline
                    # there for its call budget (tests/test_call_budget).
                    self._note_redispersed()
                    idx = self._read_memo().get(key)
                    if idx is None:
                        idx = self._read_idx(key)
                    (reply,) = yield from self._legs("get_multi", [(idx, [key])], "mc-rider")
                    payload = reply.get(key) if reply is not None else None
                    if payload is None and self.membership.windows:
                        payload = yield from self._forward_get(key, idx)
                if payload is not None:
                    out[key] = payload
        self._n_hits += len(out)
        self._n_misses += len(unique) - len(out)
        return out

    # -- legs ------------------------------------------------------------------
    def _fork(self, op: str, legs, name: str) -> Join:
        """A join of *op* once per ``(owner, payload)`` leg, started in
        leg order: each leg's reply, or None — booked as one ``errors``
        — for a leg whose RPC failed.  A leg is a
        :class:`~repro.net.rpc.Leg` that lands its reply on the join, or
        under a resilience config a :class:`_TrackedLeg`."""
        sim = self.endpoint.net.sim
        legs = list(legs)
        join = Join(sim, len(legs))
        conns, errors = self._conns, self.stats
        parent = sim._active_process
        try:
            if self.resilience is None:
                for index, (idx, payload) in enumerate(legs):
                    Leg(
                        conns.get(idx) or self._conn(idx), (op, payload),
                        *command_cost(op, payload), join, index, name, parent, errors, _LEG_SPAN,
                    )
            else:
                for index, (idx, payload) in enumerate(legs):
                    sim._active_process = parent  # (health as of its departure)
                    _TrackedLeg(self, idx, op, payload, join, index, name, parent, errors)
        finally:
            sim._active_process = parent
        return join

    def _legs(self, op: str, legs: list[tuple[int, Any]], name: str) -> Generator:
        """*op* once per ``(owner, payload)`` leg; the replies in leg
        order, None for a leg that failed.  Several legs are pipelined
        on the client NIC under one join (:meth:`_fork`; wall time ~ the
        slowest, not their sum); a single one runs here, in the caller's
        frame — no leg, no join entry — and waits on its response
        itself."""
        if len(legs) == 1:
            ((idx, payload),) = legs
            try:
                return [(yield from self._call(idx, op, payload))]
            except RpcError:
                self.stats.inc("errors")
                return [None]
        if not legs:
            return []
        return (yield self._fork(op, legs, name))

    # -- mutation --------------------------------------------------------------
    def _send(self, idxs: list[int], op: str, payload: Any) -> Generator:
        """*op* to every owner in *idxs* (a full owner list).  One
        owner: the RPC's own generator, run in the caller's frame, which
        raises :class:`RpcError`.  Several: :meth:`_fanout`."""
        if len(idxs) == 1:
            return self._call(idxs[0], op, payload)
        self._book_extras(len(idxs) - 1, "replica_writes")
        return self._fanout(idxs, op, payload)

    def _book_extras(self, extra: int, replica_stat: str) -> None:
        """Account the *extra* owners a mutation is sent to beyond the
        primary: replicas under *replica_stat* (``replica_writes`` /
        ``replica_deletes``), a window's old owners as
        ``window_writes``."""
        if self._replication is not None:
            self.stats.inc(replica_stat, extra)
            return
        self.stats.inc("window_writes", extra)
        if self.tracer.oplog is not None:
            self.tracer.op_count("window_writes", extra)
            self.tracer.op_tag("resize-window-write")

    def _fanout(self, idxs: list[int], op: str, payload: Any) -> Generator:
        """Issue *op* to every server in *idxs* concurrently.  Returns
        whether any of them applied it, or None when none even answered
        (each failed RPC is booked as an ``errors``)."""
        results = yield from self._legs(op, [(i, payload) for i in idxs], "mc-fanout")
        if all(r is None for r in results):
            return None
        return any(results)

    def set(
        self,
        key: str,
        value: Any,
        nbytes: int,
        flags: int = 0,
        ttl: float = 0,
    ) -> Generator:
        """Store on every owner of *key*; False when the bank is down or
        rejected the item.

        The send runs in this frame, not a wrapper's: the perf ledger
        attributes store time to the frame named ``MemcacheClient.set``,
        and a wrapper frame would be walked on every resume of every
        ``:stat`` push."""
        send = self._send(self.owners(key), "set", (key, value, nbytes, flags, ttl))
        try:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.set"):
                    ok = yield from send
            else:
                ok = yield from send
        except RpcError:
            self.stats.inc("errors")
            return False
        if ok is None:
            return False
        self._n_sets += 1
        return ok

    def set_multi(self, items: list[tuple[str, Any, int, int, float]]) -> Generator:
        """Store many ``(key, value, nbytes, flags, ttl)`` items, one
        pipelined request per owner; returns the keys some owner stored.

        Every item reaches **every** owner of its key, in request order
        (a duplicated key keeps its last value); a refused item fails
        alone.  ``sets`` counts the items some owner answered.
        """
        by_owner = self._sole_batches(items, True)
        #: Each item's owner list, walked only when a key may have several.
        routes: Optional[list[list[int]]] = None
        if by_owner is None:
            by_owner, routes = {}, []
            owners = self.owners
            for item in items:
                idxs = owners(item[0])
                routes.append(idxs)
                if len(idxs) > 1:
                    self._book_extras(len(idxs) - 1, "replica_writes")
                for i in idxs:
                    by_owner.setdefault(i, []).append(item)
        legs = list(by_owner.items())
        if self.tracer.enabled:
            with self.tracer.span("mcd", "mc.set_multi"):
                replies = yield from self._legs("set_multi", legs, "mc-multiset")
        else:
            replies = yield from self._legs("set_multi", legs, "mc-multiset")
        stored: set[str] = set()
        down: set[int] = set()
        for (idx, batch), reply in zip(legs, replies):
            if reply is None:
                down.add(idx)
            else:
                stored.update(compress(map(_ITEM_KEY, batch), reply))
        # An item counts once, however many of its owners answered.
        if not down:
            answered = len(items)
        elif routes is None:
            answered = len(items) - sum(len(by_owner[i]) for i in down)
        else:
            answered = sum(not down.issuperset(idxs) for idxs in routes)
        if answered:
            self._n_sets += answered
        return stored

    def delete_multi(self, keys: list[str]) -> Generator:
        """Best-effort bulk delete, batched one RPC per server (used by
        SMCache purges, which may cover every block of a file).

        Every key's delete lands on **all** of its owners; ``deletes``
        counts primary-copy removals.
        """
        primary = self._sole_batches(keys, False)
        extras: dict[int, list[str]] = {}
        if primary is None:
            primary = {}
            owners = self.owners
            for key in keys:
                idxs = owners(key)
                primary.setdefault(idxs[0], []).append(key)
                if len(idxs) > 1:
                    self._book_extras(len(idxs) - 1, "replica_deletes")
                    for i in idxs[1:]:
                        extras.setdefault(i, []).append(key)
        legs = [*primary.items(), *extras.items()]
        if self.tracer.enabled:
            with self.tracer.span("mcd", "mc.delete_multi"):
                replies = yield from self._legs("delete_multi", legs, "mc-multidelete")
        else:
            replies = yield from self._legs("delete_multi", legs, "mc-multidelete")
        deleted = sum(n for n in replies[: len(primary)] if n is not None)
        self._n_deletes += deleted
        return deleted


class _TrackedLeg(TimedLeg):
    """One MCD leg under a resilience config, with its
    :data:`MCD_TIMEOUT` deadline.

    It books its server's health when its outcome settles, never at
    booking: a response resets the error streak, a failure or a timeout
    counts towards ejection.  A leg to a server that is cooling, or
    that another leg is probing, lands None at once: no RPC, no entry.
    After the cooldown the first leg is the half-open probe, a
    ``flush_all`` whose answer readmits the server and only then starts
    the real leg on the same join slot; a probe that fails or times out
    re-ejects.
    """

    __slots__ = ("_client", "_idx", "_then")

    def __init__(
        self, client: MemcacheClient, idx: int, op: str, payload: Any, join: Join,
        index: int, name: str, parent, errors: Counter, inline: bool = False,
    ) -> None:
        self._client = client
        self._idx = idx
        h = client._health[idx]
        then = None
        if h.ejected_until >= 0.0:
            if client._cooling(idx):
                client.stats.inc("ejected_skips")
                if client.tracer.oplog is not None:
                    client.tracer.op_count("ejected_skips")
                self.sim, self._join, self._index = client.endpoint.net.sim, join, index
                self._errors, self.inline = errors, inline
                TimedLeg._settle(self, None, True)
                return
            h.probing = True
            then = (op, payload)
            op, payload = "flush_all", None
        #: None, or for a probe the ``(op, payload)`` its answer starts.
        self._then = then
        TimedLeg.__init__(
            self, client._conn(idx), (op, payload), *command_cost(op, payload), join, index,
            name, parent, errors, _LEG_SPAN, timeout=MCD_TIMEOUT, inline=inline,
        )

    def _settle(self, reply: Any, failed: bool) -> None:
        client, then = self._client, self._then
        h = client._health[self._idx]
        if then is None:
            if failed:
                client._note_failure(h)
            else:
                h.consecutive_errors = 0
        elif failed:
            h.probing = False
            h.ejected_until = self.sim.now + client.resilience.cooldown
            client.stats.inc("failed_probes")
        else:
            h.probing = False
            h.ejected_until = -1.0
            h.consecutive_errors = 0
            client.stats.inc("rejoin_purges")
            client.stats.inc("rejoins")
            self._open = False
            _TrackedLeg(client, self._idx, *then, self._join, self._index, self.name,
                        self.parent, self._errors, self.inline)
            return
        TimedLeg._settle(self, reply, failed)
