"""A minimal request/response RPC layer over the fabric.

Services are generator *handlers* registered on a node::

    def stat_handler(call):           # runs in the caller's process
        yield server.cpu.run(decode_cost)
        ...
        return reply_payload, reply_size

    endpoint.register("stat", stat_handler)

Calls are made with ``yield from`` so no extra Process objects are
created per RPC (there can be tens of millions)::

    reply = yield from client_ep.call(server_node, "stat", args, req_size)

Timing: the request message traverses the network (four station
visits and one wire latency), the handler body charges whatever
server-side stations it needs, and the response traverses the network
back.  Server concurrency is bounded by the server's CPU/disk
stations, not by process multiplicity, which is exactly how an
event-loop daemon like glusterfsd or memcached behaves.

A service whose work is CPU on the node that receives the request — a
memcached command — is priced by its caller, once, beside the request's
size, instead of yielded by its handler::

    reply = yield from ep.call(mcd_node, "memcached", args, req_size, recv_cpu)

*recv_cpu* rides the request's receive visit on that node's CPU, the
handler runs when the visit ends and returns ``(reply, size)`` without
yielding, and any CPU it leaves on :attr:`RpcCall.reply_cpu` rides the
response's send visit: a round trip is two scheduler entries.

Every call goes over a :class:`Conn`: one per (endpoint, destination,
service), built on first use and then reused, holding what every call
on it would otherwise look up again — the handler and the two bound
hops (:class:`~repro.net.fabric.Hop`), each with its four stations.

A caller that forks one call per peer under a join need not be a
generator at all: a :class:`Leg` books its request at once, runs the
handler at the request's arrival from the timed wake, books the
response and lands the reply on the join (DESIGN §7, "Legs are booked
callbacks").  A leg is its own call record: it carries the fields of an
:class:`RpcCall`, and its handler sees the leg.  :meth:`Endpoint.call`
and a leg share the request half (:meth:`Endpoint._request`) and the
answer half (:meth:`Endpoint._answer`), so an RPC fails the same way on
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Generator, Optional

from repro.net.fabric import Hop, Network, NetworkError, Node
from repro.obs.trace import NULL_TRACER
from repro.sim.events import NORMAL
from repro.sim.process import JoinChild, departure
from repro.util.stats import Counter, Tally


class RpcError(Exception):
    """Base class for RPC failures the caller may degrade around."""


class RpcUnavailable(RpcError):
    """The destination node is *dead* (or the service is not registered).

    The far end is gone: retrying immediately is pointless, and a
    caching tier should treat the peer as failed (miss / eject)."""


@dataclass
class ResilienceConfig:
    """How a testbed rides out failures: MCD failures never affect
    correctness, only hit rate (§4.4), and a brick flap stalls its
    clients rather than failing them.

    A testbed without one makes every RPC one attempt, and a failed MCD
    call is a miss.  With one, every MCD call has a deadline
    (:data:`~repro.memcached.client.MCD_TIMEOUT`; a missed one counts
    as an error); a daemon that fails
    :data:`~repro.memcached.client.EJECT_AFTER` calls in a row is
    skipped for *cooldown* seconds, then readmitted only by a purge
    that answers; and a brick fop that fails is retried with seeded
    backoff (:meth:`Endpoint.call_retry`).  *seed* is the master seed
    of the named :class:`~repro.sim.rand.RandomStreams` the backoff
    jitter and message loss draw from.
    """

    #: Seconds an ejected MCD is skipped before a probe may readmit it.
    cooldown: float = 0.02
    seed: int = 0xFA17

    def __post_init__(self) -> None:
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0: {self.cooldown}")


#: A brick fop's retries under a :class:`ResilienceConfig`, enough to
#: ride out a server flap (:meth:`Endpoint.call_retry`).
SERVER_RETRIES = 10
#: The sleep before retry n: ``RETRY_BACKOFF * RETRY_BACKOFF_FACTOR**n``
#: capped at ``RETRY_MAX_BACKOFF``, then stretched by up to
#: ``RETRY_JITTER`` of itself by a draw from the jitter stream.
RETRY_BACKOFF = 2e-4
RETRY_BACKOFF_FACTOR = 2.0
RETRY_MAX_BACKOFF = 5e-3
RETRY_JITTER = 0.1


class Conn:
    """One connection: *endpoint*'s node to *service* on *dst*, resolved
    once (:meth:`Endpoint.conn`) — the service's handler and both
    directions' :class:`~repro.net.fabric.Hop`: ``out`` carries the
    requests, ``back`` the responses.  A handler not yet registered is
    looked up again by the next request."""

    __slots__ = ("endpoint", "src", "dst", "service", "handler", "out", "back")

    def __init__(self, endpoint: "Endpoint", dst: Node, service: str) -> None:
        net = endpoint.net
        self.endpoint = endpoint
        self.src = endpoint.node
        self.dst = dst
        self.service = service
        self.handler: Optional[Callable[[Any], Any]] = dst.services.get(service)
        self.out: Hop = net.hop(endpoint.node, dst)
        self.back: Hop = net.hop(dst, endpoint.node)


@dataclass(slots=True)
class RpcCall:
    """Handler-visible view of one in-flight call over ``conn``.  A
    :class:`Leg` carries the same fields and is its own record."""

    conn: Conn
    args: Any
    req_size: int
    #: Host-CPU seconds the request costs the far end on arrival.
    recv_cpu: float = 0.0
    #: Host-CPU seconds the handler leaves for the response's send visit
    #: on its node (a reply copy).
    reply_cpu: float = 0.0
    #: The call's open network span (``net.req``, then ``net.resp``)
    #: on a traced endpoint.
    span: Any = None


#: Handler type: receives the call and returns (payload, size) — from a
#: generator that yields the stations it visits, or directly when its
#: node's CPU is all declared as arrival and reply CPU.
RpcHandler = Callable[[RpcCall], Any]

#: Fixed wire overhead of an RPC header (XDR-ish framing).
HEADER_SIZE = 96


class Endpoint(Tally):
    """RPC endpoint binding one node to one network."""

    TALLY = ("calls",)

    def __init__(self, net: Network, node: Node, tracer=NULL_TRACER) -> None:
        if not net.attached(node):
            net.attach(node)
        self.net = net
        self.node = node
        self.stats = self._tally(Counter())
        self.tracer = tracer
        #: (dst, service) -> its :class:`Conn`, built on first use.
        self._conns: dict[tuple[Node, str], Conn] = {}

    def register(self, service: str, handler: RpcHandler) -> None:
        """Serve *service* on this node."""
        if service in self.node.services:
            raise ValueError(f"service {service!r} already registered on {self.node.name}")
        self.node.services[service] = handler

    def conn(self, dst: Node, service: str) -> Conn:
        """The connection to *service* on *dst*: built on first use, then
        the same object for every call and leg.  Raises
        :class:`~repro.net.fabric.NetworkError` if *dst* is not attached."""
        conn = self._conns.get((dst, service))
        if conn is None:
            conn = self._conns[(dst, service)] = Conn(self, dst, service)
        return conn

    def call(
        self, dst: Node, service: str, args: Any = None, req_size: int = 0,
        recv_cpu: float = 0.0,
    ) -> Generator[Any, Any, Any]:
        """Invoke *service* on *dst*; yields from the caller's process.

        Returns the handler's reply payload.  Raises
        :class:`RpcUnavailable` if the destination is dead at request or
        response time (the caller decides whether that is fatal — IMCa
        treats a dead MCD as a cache miss).

        The whole call — request transfer, handler, response transfer —
        runs in this one generator frame (``yield from`` on a generator
        handler, a plain call of one that yields nothing): no per-RPC
        process, no wrapper frames to walk on every resume (the hot
        path).  A call with a deadline is a :class:`TimedLeg`.

        *recv_cpu* — the CPU the request costs *dst* on arrival — is
        part of the request's receive visit, so the handler runs when
        that visit ends; if the node dies before then the call fails and
        the handler never runs.  A request that never arrives (dead
        node, lost frame) costs the far end nothing.

        The call goes over the :class:`Conn` to *service* on *dst*
        (:meth:`conn`).
        """
        conn = self._conns.get((dst, service)) or self.conn(dst, service)
        call = RpcCall(conn, args, req_size, recv_cpu)
        due = self._request(call)
        try:
            yield due
        except NetworkError as e:
            # The request could not arrive: the failing event's error.
            self._answer(call, e)
        if call.span is None and dst.alive:
            served = conn.handler(call)  # (`_answer`'s healthy case, inline)
        else:
            served = self._answer(call)
        # Request delivered: the handler's reply goes back.
        if type(served) is tuple:
            reply, resp_size = served
        else:
            reply, resp_size = yield from served
        tracer = self.tracer
        if tracer.enabled:
            call.span = tracer.span("network", f"net.resp.{service}").__enter__()
        try:
            yield conn.back.send(HEADER_SIZE + int(resp_size), call.reply_cpu)
        except NetworkError as e:
            # From the transfer (the replying node died in a yielding
            # handler) or from the undeliverable response's event.
            self._answer(call, e)
        if call.span is not None:
            call.span.__exit__(None, None, None)
        return reply

    def _request(self, call) -> Any:
        """The request half of every plain call (:meth:`call`, a
        :class:`Leg`): book the request of *call* — an :class:`RpcCall`,
        or a leg, which is its own record — over ``call.conn``, its
        ``recv_cpu`` riding its receive visit.  Returns *due*: the float
        instant that visit ends, or the event that fails once an
        undeliverable request has been charged.  Raises
        :class:`RpcUnavailable` for a service a live node does not
        serve, or a dead source (one ``errors``)."""
        conn = call.conn
        if conn.handler is None:
            dst = conn.dst
            conn.handler = dst.services.get(conn.service)
            if conn.handler is None and dst.alive:
                # (Dead and unregistered: the send below fails.)
                raise RpcUnavailable(f"no service {conn.service!r} on {dst.name}")
        self._n_calls += 1
        tracer = self.tracer
        if tracer.enabled:
            # The handler is entered inside the request's span so it
            # can book its arrival CPU as a child of it.
            call.span = tracer.span("network", f"net.req.{conn.service}").__enter__()
        try:
            return conn.out.send(HEADER_SIZE + call.req_size, 0.0, call.recv_cpu)
        except NetworkError as e:
            self._answer(call, e)

    def _answer(self, call, failure: Optional[NetworkError] = None) -> Any:
        """The answer half: what the caller learns when a message of
        *call* was due.  With a *failure* — a request or response that
        could not be delivered — or a destination that died before the
        request's receive visit ended, it books one ``errors``, closes
        the open network span and raises :class:`RpcUnavailable`.
        Otherwise it runs the handler, which returns ``(reply, size)``
        or a generator of them, and closes the request's span (with no
        span, the handler call alone: :meth:`call` and a leg inline it)."""
        span = call.span
        try:
            if failure is None:
                dst = call.conn.dst
                if not dst.alive:
                    failure = NetworkError(f"{dst.name} died during call")
                else:
                    return call.conn.handler(call)
            self.stats.inc("errors")
            raise RpcUnavailable(str(failure)) from None
        finally:
            if span is not None:
                call.span = None
                span.__exit__(None, None, None)

    def call_retry(
        self,
        dst: Node,
        service: str,
        args: Any = None,
        req_size: int = 0,
        jitter: Any = None,
    ) -> Generator[Any, Any, Any]:
        """:meth:`call`, retried on an :class:`RpcError` up to
        :data:`SERVER_RETRIES` times with the backoff the ``RETRY_*``
        constants shape, each sleep's jitter drawn from *jitter* (a
        testbed's ``rpc.jitter`` stream).  ``jitter=None`` *is* a plain
        inline :meth:`call` — the generator returned is that call's, so
        a testbed without resilience pays no frame for the wrapper.
        Semantics are at-least-once: an attempt whose response was lost
        has executed server-side, so non-idempotent services must
        tolerate replays (every GlusterFS fop here is idempotent or
        last-writer-wins).
        """
        if jitter is None:
            return self.call(dst, service, args, req_size)
        return self._call_retrying(dst, service, args, req_size, jitter)

    def _call_retrying(
        self, dst: Node, service: str, args: Any, req_size: int, jitter: Any
    ) -> Generator[Any, Any, Any]:
        sim = self.net.sim
        for attempt in range(SERVER_RETRIES + 1):
            try:
                reply = yield from self.call(dst, service, args, req_size)
            except RpcError:
                if attempt == SERVER_RETRIES:
                    raise
                self.stats.inc("retries")
                if self.tracer.oplog is not None:
                    self.tracer.op_count("rpc_retries")
                delay = RETRY_BACKOFF * RETRY_BACKOFF_FACTOR**attempt
                if delay > RETRY_MAX_BACKOFF:
                    delay = RETRY_MAX_BACKOFF
                delay *= 1.0 + RETRY_JITTER * float(jitter.random())
                # From ``ready`` if the attempt failed before it.
                yield sim.at(departure(sim) + delay)
            else:
                return reply


class Leg(JoinChild):
    """One plain RPC as a child of a :class:`~repro.sim.process.Join`,
    run as booked callbacks rather than a generator.

    A leg is its own call record: it carries an :class:`RpcCall`'s
    fields (``conn``, ``args``, ``req_size``, ``recv_cpu``,
    ``reply_cpu``, ``span``), and the handler is handed the leg.  The constructor books the request (:meth:`Endpoint._request`)
    and mints the request's timed-wake entry at once — the entry, and its
    seq, a strand yielding the same transfer would mint.  The wake runs
    :meth:`_resume` at the request's arrival: the answer half
    (:meth:`Endpoint._answer`), the response's booking, and the reply
    *landed* on the join at the response's arrival.  A failed RPC books
    one ``errors`` on *errors* and reports None; any other exception the
    handler raises fails the join.  An undeliverable request or response
    is an event the leg waits on, so it fails when the traversal would
    have ended.

    Where observers look it is a strand: ``sim.active_process`` while it
    runs, with ``name``, a ``serial`` from the process counter,
    ``parent`` and ``ready``.  On a traced endpoint it opens the span
    *span* (``(tier, name)``) around the call, and closes it, like the
    call's ``net.resp`` span, at the landing instant.

    The handler must answer without yielding (a generator handler needs
    a generator caller: :meth:`Endpoint.call`).  A leg with a deadline
    is a :class:`TimedLeg`; retries stay a strand (:meth:`Endpoint.call_retry`).
    """

    __slots__ = (
        "sim", "name", "serial", "parent", "ready", "_wake", "_join", "_index",
        "_errors", "_span",
        # The call record (:class:`RpcCall`'s fields).
        "conn", "args", "req_size", "recv_cpu", "reply_cpu", "span",
    )

    def __init__(
        self,
        conn: Conn,
        args: Any,
        req_size: int,
        recv_cpu: float,
        join,
        index: int,
        name: str,
        parent,
        errors: Counter,
        span: Optional[tuple[str, str]] = None,
    ) -> None:
        endpoint = conn.endpoint
        sim = self.sim = endpoint.net.sim
        self.name = name
        sim._proc_seq += 1
        self.serial = sim._proc_seq
        self.parent = parent
        self.ready = -inf if parent is None else parent.ready
        #: Seq of the timed wake this leg sleeps on.
        self._wake = 0
        self._join = join
        self._index = index
        self._errors = errors
        self._span = None
        self.conn = conn
        self.args = args
        self.req_size = req_size
        self.recv_cpu = recv_cpu
        self.reply_cpu = 0.0
        self.span = None
        sim._active_process = self
        try:
            if span is not None and endpoint.tracer.enabled:
                self._span = endpoint.tracer.span(*span).__enter__()
            due = endpoint._request(self)
            if due.__class__ is float:
                # As `_Runner._resume` mints a yielded float's wake.
                sim._seq = self._wake = seq = sim._seq + 1
                sim._push((due, NORMAL, seq, None, self))
            else:
                due.callbacks.append(self._resume)
        except RpcError:
            self._failed()
        except BaseException as exc:
            self._close_span()
            self.fail(exc)
        finally:
            sim._active_process = None

    def _resume(self, event) -> None:
        """The request's arrival (its timed wake, or the event of an
        undeliverable request)."""
        sim = self.sim
        sim._active_process = self
        conn = self.conn
        endpoint = conn.endpoint
        try:
            if not event._ok:
                event._defused = True
                endpoint._answer(self, event._value)
            elif self.span is None and conn.dst.alive:
                reply, resp_size = conn.handler(self)  # (`_answer`, inline)
            else:
                reply, resp_size = endpoint._answer(self)
            tracer = endpoint.tracer
            if tracer.enabled:
                self.span = tracer.span("network", f"net.resp.{conn.service}").__enter__()
            try:
                due = conn.back.send(HEADER_SIZE + int(resp_size), self.reply_cpu)
            except NetworkError as e:
                endpoint._answer(self, e)
            if due.__class__ is float:
                span = self.span
                if span is not None:
                    span.end = due
                    span.__exit__(None, None, None)
                    self._close_span(due)
                self.land(reply, due)
            else:
                due.callbacks.append(self._lost)
        except RpcError:
            self._failed()
        except BaseException as exc:
            self._close_span()
            self.fail(exc)
        finally:
            sim._active_process = None

    def _lost(self, event) -> None:
        """The event of an undeliverable response."""
        event._defused = True
        sim = self.sim
        sim._active_process = self
        try:
            self.conn.endpoint._answer(self, event._value)
        except RpcError:
            self._failed()
        finally:
            sim._active_process = None

    def _failed(self) -> None:
        self._errors.inc("errors")
        self._close_span()
        self.land(None)

    def _close_span(self, end: Optional[float] = None) -> None:
        """Close the leg's own span: at *end*, or now."""
        span = self._span
        if span is not None:
            self._span = None
            span.end = end
            span.__exit__(None, None, None)


class TimedLeg(Leg):
    """A :class:`Leg` (same arguments, then *timeout* and *inline*) that
    *settles* (:meth:`_settle`) where a strand sleeping on the call
    would learn its outcome — the response's arrival, the failure, the
    deadline — so that a subclass can book it there.  An *inline* leg is
    the one leg of a join standing for a single call: the join's waiter
    resumes in the entry the outcome comes in, and the join mints none.

    The deadline is ``departure + timeout`` (from ``ready``), compared
    with the instants the leg has booked: a response due by then settles
    at its arrival, a failure that comes first settles as a failure, and
    otherwise the leg settles None at the deadline with one ``timeouts``
    (``rpc_timeouts`` on the op).  The request still runs on the far end
    and its response is sent (at-least-once); a failure it meets later
    books the endpoint's ``errors`` and nothing else.
    """

    __slots__ = ("deadline", "inline", "_open", "_reply")

    def __init__(self, *args: Any, timeout: float, inline: bool = False) -> None:
        self.inline = inline
        #: Whether the outcome is still to settle.
        self._open = True
        #: The deadline still to meet: inf once an answer is due by it.
        self.deadline = inf
        Leg.__init__(self, *args)
        if self._open:
            sim = self.sim
            self.deadline = max(sim._now, self.ready) + timeout
            sim.at(self.deadline).callbacks.append(self._expire)

    def land(self, value: Any, at: float = -inf) -> None:
        """The response, booked to arrive at *at*: wake there to settle
        with *value*, unless the deadline comes first."""
        if self._open and at <= self.deadline:
            self._reply = value
            self.deadline = inf
            self.sim.at(at).callbacks.append(self._woken)

    def _expire(self, _event) -> None:
        if self._open and self.deadline < inf:
            self._woken(None)

    def _woken(self, event) -> None:
        """Settle at a landing wake, or (*event* None) at the deadline."""
        sim = self.sim
        sim._active_process = self
        try:
            if event is not None:
                self._settle(self._reply, False)
                return
            endpoint = self.conn.endpoint
            endpoint.stats.inc("timeouts")
            if endpoint.tracer.oplog is not None:
                endpoint.tracer.op_count("rpc_timeouts")
            self._settle(None, True)
        finally:
            sim._active_process = None

    def _failed(self) -> None:
        self._close_span()
        if self._open:
            self._settle(None, True)

    def fail(self, exception: BaseException) -> None:
        # An abandoned call's exception has nobody left to tell.
        if self._open:
            self._open = False
            JoinChild.fail(self, exception)

    def _settle(self, reply: Any, failed: bool) -> None:
        """The outcome, now: land *reply*, or None with one ``errors``
        when the call *failed*."""
        self._open = False
        if failed:
            self._errors.inc("errors")
        if not self.inline:
            JoinChild.land(self, reply)
            return
        # The one leg of a call's join: its waiter resumes in this entry,
        # as a caller sleeping on the call itself would.
        join = self._join
        join._results[0] = reply
        join._pending, join._value = 0, join._results
        callbacks, join.callbacks = join.callbacks, None
        for callback in callbacks:
            callback(join)
