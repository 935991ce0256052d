"""libmemcache-style client: server selection, multi-get, failure
transparency.

The client owns the key→server mapping (CRC32 by default, modulo for
the §5.5 striping experiment) and degrades gracefully when daemons die:
a failed server makes gets miss and stores no-ops, never an error —
"IMCa can transparently account for failures in MCDs" (§4.4).

With a :class:`HealthPolicy` the client also *tracks* daemon health:
after ``eject_after`` consecutive RPC errors a server is ejected and
skipped outright (zero simulated cost — the fast degraded path), then
re-probed after ``cooldown``.  Rejoin mandates a purge (``flush_all``)
so a daemon that merely blinked — recovered without a cold restart —
can never serve pre-crash data.

Every key has an **owner list** (:meth:`MemcacheClient.owners`):
``[primary, *others]``, by stable node id, over the bank's
:class:`~repro.memcached.membership.McdMembership`.  The primary is the
selector's pick over the current key ring; the others are the key's
replicas (``replicas > 1``: R distinct owners via a ketama-ring walk)
or, while a resize's forwarding window is open, its old owners.  An
unreplicated key outside a window — the paper's configuration — is the
list of one.  Reads go to one owner (the primary, or a seeded
round-robin over the live replicas; a miss inside a window consults the
old owner and backfills the new one).  Stores, concats, touches and
deletes reach **every** owner, because a purge that skips an owner
leaves stale data serveable.  A bank built from a plain daemon list is
the membership with ids ``0..n-1`` and no events.

The batch ops share one shape: ``get_multi``, ``set_multi`` and
``delete_multi`` group their keys by owner and send **one request per
owner**, the owners concurrently (:meth:`MemcacheClient._legs`), so a
batch costs one round trip of simulated time however many MCDs it
spans; a keyed mutation with several owners (:meth:`_fanout`) is the
same legs with one payload.  A leg that fails books one ``errors`` and
answers None — it costs that owner's share and nothing else.  A leg
that succeeds *lands* its reply on the join (:meth:`MemcacheClient._leg`)
rather than waking up once more to hand it over, so K legs cost K + 1
scheduler entries: one per request and the join's.  A mutation with a
single leg runs in the caller's frame and mints no join entry, which
costs the same 2; ``get_multi`` always joins (for span attribution).

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
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.memcached.daemon import McValue, MemcachedDaemon, SERVICE, request_size
from repro.memcached.hashing import (
    Crc32Selector,
    KetamaSelector,
    ReplicatedSelector,
    ServerSelector,
)
from repro.memcached.membership import LIVE, McdMembership
from repro.net.rpc import Endpoint, RetryPolicy, RpcError, RpcUnavailable
from repro.sim.events import Event
from repro.sim.process import Landing, departure
from repro.util.stats import Counter


@dataclass
class HealthPolicy:
    """Client-side MCD health tracking knobs.

    ``retry`` (optional) adds per-call deadlines/backoff to every MCD
    RPC; ejection counts a call as one error after its retries are
    exhausted.  The probe that readmits a server always wipes it first
    (the coherence guarantee): cold-start semantics even when the
    daemon recovered with its memory intact.
    """

    eject_after: int = 3
    cooldown: float = 0.02
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.eject_after < 1:
            raise ValueError(f"eject_after must be >= 1: {self.eject_after}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0: {self.cooldown}")


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


class MemcacheClient:
    """A client node's view of the MCD array."""

    def __init__(
        self,
        endpoint: Endpoint,
        servers: list[MemcachedDaemon],
        selector: Optional[ServerSelector] = None,
        health: Optional[HealthPolicy] = None,
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
        self.health = health
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
        #: Singleflight (DESIGN §15): every key this client is fetching
        #: right now.  The entry is None until a second caller wants the
        #: same key and swaps in the Event it parks on; the fetcher
        #: publishes only if one is there, so a fetch nobody shares
        #: costs a dict slot and nothing else.
        self._inflight: dict[str, Optional[Event]] = {}
        self.stats = Counter()
        # Spans share the endpoint's tracer; MCD time observed from the
        # client side (RPC wait included) is attributed to the mcd tier.
        self.tracer = endpoint.tracer
        self._resync()

    # -- plumbing ------------------------------------------------------------
    def _resync(self) -> None:
        """Cache the membership's view for its current epoch: the key
        ring and, in ring order, its daemons.  Every routing entry point
        compares ``_epoch`` first, so a bank nobody resizes pays one
        integer compare per op."""
        m = self.membership
        self._epoch = m.epoch
        self._ring = m.ring_ids
        self.servers = [m.daemon(i) for i in self._ring]

    def add_server(self, server: MemcachedDaemon) -> None:
        """Grow the cache bank (§4.4: "Additional caching nodes can be
        easily added") — cold: no forwarding window opens.  Keys re-map
        according to the selector — modulo N remaps almost everything;
        ketama only ~1/(N+1).  Every client sharing the membership sees
        the new daemon."""
        self.membership.attach(self.membership.alloc_id(), server, LIVE)

    def server_for(self, key: str, hint: Optional[int] = None) -> MemcachedDaemon:
        return self.membership.daemon(self.owners(key, hint)[0])

    def owners(self, key: str, hint: Optional[int] = None) -> list[int]:
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
        ring = self._ring
        if self._replication is not None:
            return [ring[i] for i in self._replication.replicas_for(key, len(ring), hint)]
        if self._ketama is not None:
            primary = self._ketama.owner(key, ring)
            if m.windows:
                peers = m.window_peers(key, primary, self._ketama, self.endpoint.net.sim.now)
                if peers:
                    return [primary, *peers]
        else:
            # Positional selector over the ring: a membership change
            # renumbers the map (the naive-resize comparison case).
            primary = ring[self.selector.select(key, len(ring), hint)]
        return [primary]

    def _read_route(self) -> Callable[[str, int, Optional[int]], int]:
        """``route(key, len(self.servers), hint)``: the server a read of
        *key* goes to, resolved once per request.  With no replication,
        while the ring is still the identity over ``0..n-1`` (epoch 0),
        that is the selector's own ``select`` — the trivial instance of
        :meth:`_read_idx`."""
        m = self.membership
        if self._epoch != m.epoch:
            self._resync()
        if self._replication is None and m.epoch == 0:
            return self.selector.select
        return self._read_idx

    def _read_idx(self, key: str, nservers: int, hint: Optional[int] = None) -> int:
        """The replica a read goes to: seeded per-key round-robin over
        the replicas not currently sitting out an ejection cooldown (all
        of them, if every replica is ejected).  The cursor is per key —
        a cursor shared across keys correlates with periodic batch
        shapes and can park a hot key on one replica, reshuffling load
        instead of splitting it; per-key rotation splits every key's
        reads exactly 1/R.  Cursor memory is one small int per distinct
        key this client has read (bounded by its keyspace)."""
        replicas = self.owners(key, hint)
        if self._replication is None:
            return replicas[0]
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
        if self.health is None:
            return False
        h = self._health[idx]
        return h.ejected_until >= 0.0 and (
            departure(self.endpoint.net.sim) < h.ejected_until or h.probing
        )

    def ejected(self, idx: int) -> bool:
        """Whether server *idx* is currently ejected (for observers)."""
        return self._health[idx].ejected_until >= 0.0

    def _call(self, idx: int, op: str, payload: Any, land: bool = False) -> Generator:
        """One MCD RPC.  With no health policy there is nothing to wrap:
        the generator returned is :meth:`Endpoint.call`'s own, which
        *land*s its reply (see there).  Under a policy the call never
        lands: :meth:`_call_tracked` acts on the reply's arrival."""
        if self.health is None:
            return self.endpoint.call(
                self.membership.members[idx].daemon.node, SERVICE, (op, payload),
                request_size(op, payload), land=land,
            )
        return self._call_tracked(idx, op, payload)

    def _call_tracked(self, idx: int, op: str, payload: Any) -> Generator:
        """:meth:`_call` under a health policy: skip an ejected server,
        probe it back in after the cooldown, count consecutive errors."""
        server = self.membership.daemon(idx)
        h = self._health[idx]
        if h.ejected_until >= 0.0:
            if departure(self.endpoint.net.sim) < h.ejected_until or h.probing:
                # Fast degraded path: no RPC, no simulated time —
                # the caller sees a miss instantly.  ``probing``
                # keeps concurrent batches from racing into a
                # second half-open probe of the same server.
                self.stats.inc("ejected_skips")
                if self.tracer.oplog is not None:
                    self.tracer.op_count("ejected_skips")
                raise RpcUnavailable(
                    f"{server.node.name} ejected (cooldown in progress)"
                )
            yield from self._probe_rejoin(idx, op)
        try:
            reply = yield from self.endpoint.call_retry(
                server.node,
                SERVICE,
                (op, payload),
                req_size=request_size(op, payload),
                policy=self.health.retry,
            )
        except RpcError:
            self._note_failure(h)
            raise
        h.consecutive_errors = 0
        return reply

    def _note_failure(self, h: _ServerHealth) -> None:
        h.consecutive_errors += 1
        if h.consecutive_errors >= self.health.eject_after and h.ejected_until < 0.0:
            h.ejected_until = self.endpoint.net.sim.now + self.health.cooldown
            h.consecutive_errors = 0
            self.stats.inc("ejections")
            if self.tracer.oplog is not None:
                self.tracer.op_count("mcd_ejections")

    def _probe_rejoin(self, idx: int, op: str) -> Generator:
        """Half-open probe after cooldown: purge, then readmit.

        The purge is mandatory (unless the op *is* the purge): a server
        that revived without a cold restart still holds pre-crash items,
        and SMCache updates issued while it was ejected never reached
        it, so anything it holds is potentially stale.  A failed probe
        re-ejects for another cooldown.
        """
        policy = self.health
        server = self.membership.daemon(idx)
        h = self._health[idx]
        h.probing = True
        try:
            if op != "flush_all":
                try:
                    yield from self.endpoint.call_retry(
                        server.node,
                        SERVICE,
                        ("flush_all", None),
                        req_size=request_size("flush_all", None),
                        policy=policy.retry,
                    )
                except RpcError:
                    h.ejected_until = self.endpoint.net.sim.now + policy.cooldown
                    self.stats.inc("failed_probes")
                    raise
                self.stats.inc("rejoin_purges")
            h.ejected_until = -1.0
            h.consecutive_errors = 0
            self.stats.inc("rejoins")
        finally:
            h.probing = False

    # -- retrieval -------------------------------------------------------------
    def get(self, key: str, hint: Optional[int] = None) -> Generator:
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
                self.stats.inc("hits" if payload is not None else "misses")
                return payload
            self._note_redispersed()
        published = _SF_FAILED
        try:
            idx = self._read_route()(key, len(self.servers), hint)
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
        self.stats.inc("hits" if value is not None else "misses")
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

    def get_multi(
        self, keys: list[str], hints: Optional[list[Optional[int]]] = None
    ) -> Generator:
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
        """
        if hints is None:
            hints = [None] * len(keys)
        elif len(hints) != len(keys):
            # zip() would silently drop the tail keys from the fetch,
            # turning a caller bug into phantom misses.
            raise ValueError(
                f"get_multi: {len(keys)} keys but {len(hints)} hints"
            )
        inflight = self._inflight
        #: key -> (flight, hint) for every key somebody is already fetching.
        riders: dict[str, tuple[Event, Optional[int]]] = {}
        by_server: dict[int, list[str]] = {}
        seen: set[str] = set()
        sim = self.endpoint.net.sim
        route, nservers = self._read_route(), len(self.servers)
        for key, hint in zip(keys, hints):
            if key in seen:
                continue
            seen.add(key)
            if key in inflight:
                # Ride the in-flight fetch instead of re-issuing it.
                riders[key] = (self._follow(key), hint)
                continue
            by_server.setdefault(route(key, nservers, hint), []).append(key)
            inflight[key] = None
        out: dict[str, McValue] = {}
        #: Keys of the batches whose RPC failed.
        failed: set[str] = set()
        completed = False
        try:
            # Nothing left to fetch (every key rides a flight): no join.
            if by_server:
                # Always a join, even over one server.  A landed leg
                # makes a one-leg join cost what an inline leg would;
                # the join stays because its ``mc.batch`` strand is what
                # the tracer books the fetch's MCD time to.
                batches = [
                    self._leg(idx, "get_multi", batch) for idx, batch in by_server.items()
                ]
                if self.tracer.enabled:
                    with self.tracer.span("mcd", "mc.get_multi"):
                        results = yield sim.gather(batches, name="mc-multiget")
                else:
                    results = yield sim.gather(batches, name="mc-multiget")
                for batch, partial in zip(by_server.values(), results):
                    if partial is not None:
                        out.update(partial)
                    else:
                        failed.update(batch)
            if self.membership.windows and len(out) < len(seen):
                for idx, batch in by_server.items():
                    for key in batch:
                        if key in out:
                            continue
                        value = yield from self._forward_get(key, idx)
                        if value is not None:
                            out[key] = value
            completed = True
        finally:
            # Publish our fetches to the followers that parked on them
            # (a failed batch re-disperses its riders, never a result —
            # and an aborted multi-get never publishes a phantom miss).
            for batch in by_server.values():
                for key in batch:
                    flight = inflight.pop(key)
                    if flight is not None:
                        ok = completed and key not in failed
                        flight.succeed(out.get(key) if ok else _SF_FAILED)
        if riders:
            results = yield sim.all_of([ev for ev, _ in riders.values()])
            for key, (ev, hint) in riders.items():
                payload = results[ev]
                if payload is _SF_FAILED:
                    # The flight we rode failed: fetch the key ourselves,
                    # outside the table (nobody follows twice).  Keep in
                    # step with the fetch body of get(), which stays inline
                    # there for its call budget (tests/test_call_budget).
                    self._note_redispersed()
                    idx = self._read_route()(key, len(self.servers), hint)
                    reply = yield from self._leg(idx, "get_multi", [key], land=False)
                    payload = reply.get(key) if reply is not None else None
                    if payload is None and self.membership.windows:
                        payload = yield from self._forward_get(key, idx)
                if payload is not None:
                    out[key] = payload
        self.stats.inc("hits", len(out))
        self.stats.inc("misses", len(seen) - len(out))
        return out

    # -- legs ------------------------------------------------------------------
    def _leg(self, idx: int, op: str, payload: Any, land: bool = True) -> Generator:
        """One owner's share of a batched or fanned-out op, as a strand
        of a join: its reply, or None — booked as one ``errors`` — when
        the RPC failed.  The reply is *land*ed on the join where the RPC
        allows (:meth:`_call`): the strand returns it with its arrival
        instead of waking up once more only to hand it over.  A leg run
        in a caller's own frame must not land."""
        try:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.batch") as span:
                    reply = yield from self._call(idx, op, payload, land)
                    if reply.__class__ is Landing:
                        span.end = reply.at
            else:
                reply = yield from self._call(idx, op, payload, land)
        except RpcError:
            self.stats.inc("errors")
            return None
        return reply

    def _legs(self, op: str, legs: list[tuple[int, Any]], name: str) -> Generator:
        """*op* once per ``(owner, payload)`` leg; the replies in leg
        order, None for a leg that failed.  Several legs are pipelined
        on the client NIC under one ``sim.gather`` (wall time ~ the
        slowest, not their sum), each landing its reply on the join;
        a single one is :meth:`_leg`'s rule run here, in the caller's
        frame — no strand, no join entry, no wrapper frame to walk on
        every resume of the RPC — and waits on its response itself."""
        if len(legs) == 1:
            ((idx, payload),) = legs
            try:
                return [(yield from self._call(idx, op, payload))]
            except RpcError:
                self.stats.inc("errors")
                return [None]
        if not legs:
            return []
        return (
            yield self.endpoint.net.sim.gather(
                [self._leg(idx, op, payload) for idx, payload in legs], name=name
            )
        )

    # -- mutation --------------------------------------------------------------
    def _send(self, idxs: list[int], op: str, payload: Any) -> Generator:
        """*op* to every owner in *idxs* (a full owner list).  One
        owner: the RPC's own generator, run in the caller's frame, which
        raises :class:`RpcError`.  Several: :meth:`_fanout`."""
        if len(idxs) == 1:
            return self._call(idxs[0], op, payload)
        self._book_extras(
            len(idxs) - 1, "replica_deletes" if op == "delete" else "replica_writes"
        )
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

    def _mutate(
        self, op: str, key: str, payload: Any, hint: Optional[int],
        booked: Optional[str] = None, span: Optional[str] = None,
    ) -> Generator:
        """The one keyed mutation: *op* reaches every owner of *key*.
        True when at least one owner applied it (the value is serveable
        / the key was there); False when the bank is down or refused.
        *booked* counts the op once some owner answered."""
        send = self._send(self.owners(key, hint), op, payload)
        try:
            if span is not None and self.tracer.enabled:
                with self.tracer.span("mcd", span):
                    ok = yield from send
            else:
                ok = yield from send
        except RpcError:
            self.stats.inc("errors")
            return False
        if ok is None:
            return False
        if booked is not None:
            self.stats.inc(booked)
        return ok

    def set(
        self,
        key: str,
        value: Any,
        nbytes: int,
        flags: int = 0,
        ttl: float = 0,
        hint: Optional[int] = None,
    ) -> Generator:
        """Store; False when the bank is down or rejected the item.

        :meth:`_mutate`'s body in a frame of its own name, not a call to
        it: the perf ledger attributes store time to the frame named
        ``MemcacheClient.set``, and a wrapper frame would be walked on
        every resume of every ``:stat`` push."""
        send = self._send(self.owners(key, hint), "set", (key, value, nbytes, flags, ttl))
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
        self.stats.inc("sets")
        return ok

    def set_multi(
        self,
        items: list[tuple[str, Any, int, int, float]],
        hints: Optional[list[Optional[int]]] = None,
    ) -> Generator:
        """Store many ``(key, value, nbytes, flags, ttl)`` items, one
        pipelined request per owner; returns the keys some owner stored.

        Every item reaches **every** owner of its key, in request order
        (a duplicated key keeps its last value); a refused item fails
        alone.  ``sets`` counts the items some owner answered.
        """
        if hints is None:
            hints = [None] * len(items)
        elif len(hints) != len(items):
            # zip() would silently drop the tail items from the push.
            raise ValueError(f"set_multi: {len(items)} items but {len(hints)} hints")
        by_owner: dict[int, list[tuple]] = {}
        routes: list[list[int]] = []
        owners = self.owners
        for item, hint in zip(items, hints):
            idxs = owners(item[0], hint)
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
                continue
            for item, ok in zip(batch, reply):
                if ok:
                    stored.add(item[0])
        # An item counts once, however many of its owners answered.
        answered = sum(not down.issuperset(idxs) for idxs in routes) if down else len(items)
        if answered:
            self.stats.inc("sets", answered)
        return stored

    def append(self, key: str, value: Any, nbytes: int, hint: Optional[int] = None) -> Generator:
        # Concats commute with the coherence invariant: whichever
        # copies exist get the same bytes appended.
        return self._mutate("append", key, (key, value, nbytes), hint)

    def prepend(self, key: str, value: Any, nbytes: int, hint: Optional[int] = None) -> Generator:
        return self._mutate("prepend", key, (key, value, nbytes), hint)

    def touch(self, key: str, ttl: float, hint: Optional[int] = None) -> Generator:
        return self._mutate("touch", key, (key, ttl), hint)

    def delete(self, key: str, hint: Optional[int] = None) -> Generator:
        """Remove *key* from **every** owner — a skipped one would keep
        serving the stale value."""
        return self._mutate("delete", key, key, hint, "deletes", "mc.delete")

    def add(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0,
            hint: Optional[int] = None) -> Generator:
        """Store only if absent."""
        return self._conditional("add", key, (key, value, nbytes, flags, ttl), hint)

    def replace(self, key: str, value: Any, nbytes: int, flags: int = 0, ttl: float = 0,
                hint: Optional[int] = None) -> Generator:
        """Store only if present."""
        return self._conditional("replace", key, (key, value, nbytes, flags, ttl), hint)

    def _conditional(self, op: str, key: str, payload: Any, hint: Optional[int]) -> Generator:
        """add/replace resolve against the **primary**; a successful
        store is then mirrored onto the other owners with a plain set —
        fanning the conditional op out verbatim could leave two owners
        holding different values (e.g. add succeeding on the empty new
        node of a resize but not on the old one)."""
        idxs = self.owners(key, hint)
        try:
            ok = yield from self._call(idxs[0], op, payload)
        except RpcError:
            self.stats.inc("errors")
            return False
        self.stats.inc("sets")
        if ok and len(idxs) > 1:
            self._book_extras(len(idxs) - 1, "replica_writes")
            yield from self._fanout(idxs[1:], "set", payload)
        return ok

    def cas(self, key: str, value: Any, nbytes: int, cas: int, flags: int = 0,
            ttl: float = 0, hint: Optional[int] = None) -> Generator:
        """Compare-and-swap; returns 'STORED' / 'EXISTS' / 'NOT_FOUND' /
        'NOT_STORED' (allocation failure), or 'NOT_FOUND' when the
        server is down."""
        return self._primary_only(
            "cas", key, (key, value, nbytes, cas, flags, ttl), hint, "NOT_FOUND"
        )

    def incr(self, key: str, delta: int = 1, hint: Optional[int] = None) -> Generator:
        """Numeric increment; None on miss or dead server."""
        return self._primary_only("incr", key, (key, delta), hint, None)

    def decr(self, key: str, delta: int = 1, hint: Optional[int] = None) -> Generator:
        return self._primary_only("decr", key, (key, delta), hint, None)

    def _primary_only(
        self, op: str, key: str, payload: Any, hint: Optional[int], down: Any
    ) -> Generator:
        """cas/incr/decr mutate the **primary** copy only: CAS tokens
        and counters are per-engine, so a token from one owner can never
        match on another and fanned-out counters would drift apart.
        The other owners' copies are therefore invalidated rather than
        updated — a read that lands on one of them (a replica, or the
        old owner a forward probe consults) must miss, never serve the
        pre-mutation value.  *down* is the answer when the primary is
        unreachable."""
        idxs = self.owners(key, hint)
        try:
            reply = yield from self._call(idxs[0], op, payload)
        except RpcError:
            self.stats.inc("errors")
            return down
        if len(idxs) > 1 and (reply == "STORED" if op == "cas" else reply is not None):
            self._book_extras(len(idxs) - 1, "replica_deletes")
            yield from self._fanout(idxs[1:], "delete", key)
        return reply

    def delete_multi(self, keys: list[str], hints: Optional[list[Optional[int]]] = None) -> Generator:
        """Best-effort bulk delete, batched one RPC per server (used by
        SMCache purges, which may cover every block of a file).

        Every key's delete lands on **all** of its owners; ``deletes``
        counts primary-copy removals.
        """
        if hints is None:
            hints = [None] * len(keys)
        elif len(hints) != len(keys):
            # zip() would silently skip deleting the tail keys — a
            # coherence hole, not just a perf bug, for SMCache purges.
            raise ValueError(
                f"delete_multi: {len(keys)} keys but {len(hints)} hints"
            )
        primary: dict[int, list[str]] = {}
        extras: dict[int, list[str]] = {}
        owners = self.owners
        for key, hint in zip(keys, hints):
            idxs = owners(key, hint)
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
        self.stats.inc("deletes", deleted)
        return deleted

    def flush_all(self) -> Generator:
        for idx in self.membership.reachable_ids():
            try:
                yield from self._call(idx, "flush_all", None)
            except RpcError:
                self.stats.inc("errors")

    def stats_all(self) -> Generator:
        """Collect engine stats from every live server."""
        out = []
        for idx in self.membership.reachable_ids():
            try:
                d = yield from self._call(idx, "stats", None)
            except RpcError:
                d = None
            out.append(d)
        return out
