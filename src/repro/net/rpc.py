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

Timing: the request message traverses the network (five stations), the
handler body charges whatever server-side stations it needs, and the
response traverses the network back.  Server concurrency is bounded by
the server's CPU/disk stations, not by process multiplicity, which is
exactly how an event-loop daemon like glusterfsd or memcached behaves.

A service whose work is CPU on the node that receives the request — a
memcached command — declares it instead of yielding it::

    endpoint.register("get", get_handler, arrival_cpu=lambda args: cost)

The cost rides the request's receive visit on that CPU, the handler
runs when the visit ends and returns ``(reply, size)`` without
yielding, and any CPU it leaves on :attr:`RpcCall.reply_cpu` rides the
response's send visit: a round trip is two scheduler entries.

A caller that runs as a strand of a join can skip the second one:
``call(..., land=True)`` books the response and returns a
:class:`~repro.sim.Landing` of the reply at its arrival instead of
sleeping until then; the join counts the reply from that instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.net.fabric import Network, NetworkError, Node
from repro.obs.trace import NULL_TRACER
from repro.sim.process import Landing, departure
from repro.util.stats import Counter


class RpcError(Exception):
    """Base class for RPC failures the caller may degrade around."""


class RpcUnavailable(RpcError):
    """The destination node is *dead* (or the service is not registered).

    The far end is gone: retrying immediately is pointless, and a
    caching tier should treat the peer as failed (miss / eject)."""


class RpcTimeout(RpcError):
    """The call exceeded its deadline but the destination may be *slow*,
    not dead.

    The request may still be executing server-side (at-least-once
    semantics): the abandoned handler keeps consuming server resources,
    exactly as a real timed-out RPC would."""


def _defuse_failure(event) -> None:
    """Callback for an abandoned in-flight call: swallow its eventual
    failure so the engine does not crash on an error nobody awaits."""
    if not event._ok:
        event._defused = True


@dataclass
class RetryPolicy:
    """Per-call timeout and bounded exponential backoff with jitter.

    ``timeout=None`` disables the deadline (the call only fails if the
    fabric reports the peer dead).  ``rng`` is a numpy Generator from a
    named :class:`~repro.sim.rand.RandomStreams` stream, so the jitter
    sequence is deterministic and isolated from every other stream.
    """

    timeout: Optional[float] = None
    max_retries: int = 0
    backoff: float = 0.001
    backoff_factor: float = 2.0
    max_backoff: float = 0.1
    jitter: float = 0.0
    rng: Any = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0: {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0: {self.jitter}")
        if self.jitter > 0 and self.rng is None:
            raise ValueError("jitter needs an rng (see RandomStreams)")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = self.backoff * (self.backoff_factor ** attempt)
        if delay > self.max_backoff:
            delay = self.max_backoff
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(self.rng.random())
        return delay


@dataclass(slots=True)
class RpcCall:
    """Handler-visible view of one in-flight call."""

    src: Node
    dst: Node
    service: str
    args: Any
    req_size: int
    #: Host-CPU seconds the handler leaves for the response's send visit
    #: on its node (a reply copy).
    reply_cpu: float = 0.0


#: Handler type: receives the call and returns (payload, size) — from a
#: generator that yields the stations it visits, or directly when its
#: node's CPU is all declared as arrival and reply CPU.
RpcHandler = Callable[[RpcCall], Any]

#: Arrival-CPU declaration: the call's args -> host-CPU seconds.
ArrivalCpu = Callable[[Any], float]

#: Fixed wire overhead of an RPC header (XDR-ish framing).
HEADER_SIZE = 96

#: ``Node.services`` lookup default: no handler, no arrival CPU.
_UNREGISTERED = (None, None)


class Endpoint:
    """RPC endpoint binding one node to one network."""

    def __init__(self, net: Network, node: Node, tracer=NULL_TRACER) -> None:
        if not net.attached(node):
            net.attach(node)
        self.net = net
        self.node = node
        self.stats = Counter()
        self.tracer = tracer

    def register(
        self, service: str, handler: RpcHandler, arrival_cpu: Optional[ArrivalCpu] = None
    ) -> None:
        """Serve *service* on this node.  *arrival_cpu*, if given, prices
        the CPU each request costs this node on arrival, from its args."""
        if service in self.node.services:
            raise ValueError(f"service {service!r} already registered on {self.node.name}")
        self.node.services[service] = (handler, arrival_cpu)

    def unregister(self, service: str) -> None:
        self.node.services.pop(service, None)

    def call(
        self,
        dst: Node,
        service: str,
        args: Any = None,
        req_size: int = 0,
        timeout: Optional[float] = None,
        land: bool = False,
    ) -> Generator[Any, Any, Any]:
        """Invoke *service* on *dst*; yields from the caller's process.

        Returns the handler's reply payload.  Raises
        :class:`RpcUnavailable` if the destination is dead at request or
        response time (the caller decides whether that is fatal — IMCa
        treats a dead MCD as a cache miss), or :class:`RpcTimeout` when
        a *timeout* is given and the call runs past the deadline.

        Without a timeout the whole call — request transfer, handler,
        response transfer — runs in this one generator frame (``yield
        from`` on a generator handler, a plain call of one that yields
        nothing): no per-RPC process, no wrapper
        frames to walk on every resume (the hot path).  With one, the
        same body runs as a child process raced against the deadline; on
        timeout the in-flight call is *abandoned*, not cancelled: the
        server keeps doing the work, the caller just stops waiting —
        which is how a real timed-out RPC behaves.

        A service's declared arrival CPU is part of the request's
        receive visit, so the handler runs when that visit ends; if the
        node dies before then the call fails and the handler never runs.
        A request that never arrives (dead node, lost frame) costs the
        far end nothing.

        With *land* — for a caller that is a join's strand and returns
        the reply straight to it — an inline call whose response is
        deliverable returns ``Landing(reply, arrival)`` instead of
        yielding the arrival (the exact float the transfer booked).  An
        undeliverable response is still yielded, so it fails when the
        traversal would have ended; a deadlined call never lands.
        """
        if timeout is not None:
            reply = yield from self._call_deadlined(dst, service, args, req_size, timeout)
            return reply
        handler, arrival_cpu = dst.services.get(service, _UNREGISTERED)
        if handler is None and dst.alive:
            # (Dead and unregistered: the transfer below fails.)
            raise RpcUnavailable(f"no service {service!r} on {dst.name}")
        recv_cpu = 0.0 if arrival_cpu is None else arrival_cpu(args)
        self.stats.inc("calls")
        tracer = self.tracer
        net = self.net
        node = self.node
        call = RpcCall(node, dst, service, args, req_size)
        frame_size = HEADER_SIZE + req_size
        try:
            if tracer.enabled:
                # The handler is entered inside the request's span so it
                # can book its arrival CPU as a child of it; a generator
                # handler's body does not run until the ``yield from``.
                with tracer.span("network", f"net.req.{service}"):
                    yield net.transfer(node, dst, frame_size, 0.0, recv_cpu)
                    if not dst.alive:
                        raise NetworkError(f"{dst.name} died during call")
                    served = handler(call)
            else:
                yield net.transfer(node, dst, frame_size, 0.0, recv_cpu)
                if not dst.alive:
                    raise NetworkError(f"{dst.name} died during call")
                served = handler(call)
        except NetworkError as e:
            self.stats.inc("errors")
            raise RpcUnavailable(str(e)) from None

        # Request delivered: the handler's reply goes back.
        if type(served) is tuple:
            reply, resp_size = served
        else:
            reply, resp_size = yield from served
        try:
            if tracer.enabled:
                with tracer.span("network", f"net.resp.{service}") as span:
                    arrival = net.transfer(dst, node, HEADER_SIZE + int(resp_size), call.reply_cpu)
                    if land and arrival.__class__ is float:
                        span.end = arrival
                        return Landing(reply, arrival)
                    yield arrival
            else:
                arrival = net.transfer(dst, node, HEADER_SIZE + int(resp_size), call.reply_cpu)
                if land and arrival.__class__ is float:
                    return Landing(reply, arrival)
                yield arrival
        except NetworkError as e:
            self.stats.inc("errors")
            raise RpcUnavailable(str(e)) from None
        return reply

    def _call_deadlined(
        self, dst: Node, service: str, args: Any, req_size: int, timeout: float
    ) -> Generator[Any, Any, Any]:
        """:meth:`call` raced against a deadline as a child process."""
        sim = self.net.sim
        proc = sim.process(self.call(dst, service, args, req_size), name=f"rpc.{service}")
        # The budget runs from when the request may leave: an op ahead
        # of its FUSE crossing sends at its ``ready`` (DESIGN §7).
        deadline = sim.at(departure(sim) + timeout)
        # A failed sub-event fails the AnyOf, which throws into *this*
        # generator — so an RpcUnavailable from the call body propagates
        # to the caller exactly as on the inline path.
        yield sim.any_of((proc, deadline))
        if proc.triggered:
            if proc.ok:
                return proc.value
            # Triggered-but-unprocessed failure at the deadline instant:
            # take ownership of it here.
            proc.defused()
            raise proc.value
        # Deadline won: abandon the in-flight call.
        self.stats.inc("timeouts")
        if self.tracer.oplog is not None:
            self.tracer.op_count("rpc_timeouts")
        if proc.callbacks is not None:
            proc.callbacks.append(_defuse_failure)
        raise RpcTimeout(f"{service} on {dst.name} exceeded {timeout:g}s deadline")

    def call_retry(
        self,
        dst: Node,
        service: str,
        args: Any = None,
        req_size: int = 0,
        policy: Optional[RetryPolicy] = None,
    ) -> Generator[Any, Any, Any]:
        """:meth:`call` with the policy's deadline and bounded retries.

        Retries both flavours of :class:`RpcError`, sleeping the
        policy's backoff between attempts.  ``policy=None`` *is* a plain
        inline :meth:`call` — the generator returned is that call's, so
        the default path pays no frame for the wrapper.  Semantics are
        at-least-once: a timed-out attempt may still have executed
        server-side, so non-idempotent services must tolerate replays
        (every memcached and GlusterFS fop here is idempotent or
        last-writer-wins).
        """
        if policy is None:
            return self.call(dst, service, args, req_size)
        return self._call_retrying(dst, service, args, req_size, policy)

    def _call_retrying(
        self, dst: Node, service: str, args: Any, req_size: int, policy: RetryPolicy
    ) -> Generator[Any, Any, Any]:
        sim = self.net.sim
        attempts = policy.max_retries + 1
        for attempt in range(attempts):
            try:
                reply = yield from self.call(
                    dst, service, args, req_size, timeout=policy.timeout
                )
            except RpcError:
                if attempt + 1 >= attempts:
                    raise
                self.stats.inc("retries")
                if self.tracer.oplog is not None:
                    self.tracer.op_count("rpc_retries")
                delay = policy.delay_for(attempt)
                if delay > 0.0:
                    # From ``ready`` if the attempt failed before it.
                    yield sim.at(departure(sim) + delay)
            else:
                return reply
