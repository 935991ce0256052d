"""A memcached daemon running on a simulated node.

"Memcached is usually run as a daemon on spare nodes ... The Memcache
daemon may be accessed through TCP/IP connections" (§2.2).  The daemon
wraps a :class:`MemcachedEngine` behind one RPC service.  Per-op CPU is
tiny compared to a file-server op — an event-loop hash-table lookup —
which is precisely why a bank of MCDs scales past the GlusterFS server
(§4.4 "Latency for requests read from the cache is lower").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.memcached.engine import MemcachedEngine, McError, McTooLarge, key_nbytes
from repro.memcached.tenancy import TenantArbiter
from repro.net.fabric import Network, Node
from repro.net.rpc import Endpoint, RpcCall
from repro.obs.trace import NULL_TRACER
from repro.util.units import GiB, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: RPC service name.
SERVICE = "memcached"

#: Per-command CPU cost (hash lookup + event loop) and per-byte copy.
OP_CPU = 3 * USEC
COPY_PER_BYTE = 1.0 / (4 * GiB)

#: Wire framing per key/value in requests/responses.
KEY_WIRE_OVERHEAD = 24
VALUE_WIRE_OVERHEAD = 40


@dataclass(slots=True)
class McValue:
    """Client-visible stored value."""

    value: Any
    nbytes: int
    flags: int
    cas: int


class MemcachedDaemon:
    """One MCD: engine + RPC service on its node."""

    def __init__(
        self,
        sim: "Simulator",
        net: Network,
        node: Node,
        mem_limit: int,
        tracer=NULL_TRACER,
        tenancy_factory: Optional[Callable[[int], TenantArbiter]] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.mem_limit = mem_limit
        #: Builds a *fresh* arbiter per engine (mem_limit -> arbiter):
        #: arbitration state is process state and must die with it.
        self.tenancy_factory = tenancy_factory
        self.engine = MemcachedEngine(
            mem_limit,
            clock=lambda: sim.now,
            tenancy=tenancy_factory(mem_limit) if tenancy_factory else None,
        )
        self.endpoint = Endpoint(net, node, tracer=tracer)
        self.tracer = tracer
        self.endpoint.register(
            SERVICE, self._serve, arrival_cpu=lambda args: command_cpu(*args)
        )
        #: Lifecycle counters for the fault layer.
        self.crashes = 0
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.node.alive

    def kill(self) -> None:
        """Fail the node; in-flight and future requests error out.

        §4.4: "Failures in MCDs do not impact correctness" — the client
        treats errors as misses."""
        if self.node.alive:
            self.crashes += 1
        self.node.fail()

    def restart(self) -> None:
        """Recover with an empty cache (a restarted daemon is cold).

        The engine is *rebuilt*, not flushed: ``flush_all`` unlinks
        items but keeps slab pages assigned to their classes and the CAS
        counter running, whereas a real restart loses the process image.
        A fresh engine makes the cold start provable — no item, page
        assignment, or CAS value survives.
        """
        sim = self.sim
        self.engine = MemcachedEngine(
            self.mem_limit,
            clock=lambda: sim.now,
            tenancy=self.tenancy_factory(self.mem_limit) if self.tenancy_factory else None,
        )
        self.restarts += 1
        self.node.recover()

    # -- RPC handler ---------------------------------------------------------
    def _serve(self, call: RpcCall):
        """The RPC handler.  It runs when the request's receive visit on
        this node's CPU ends, and that visit already carried the
        command's :func:`command_cpu`; so it yields nothing: it does the
        engine work, leaves a reply's copy on ``call.reply_cpu`` for the
        response's send visit, and returns ``(reply, resp_bytes)``."""
        op, payload = call.args
        if self.tracer.enabled:
            # The command's CPU is the tail of the receive visit: book it
            # to the mcd tier, inside the request's network span.
            self.tracer.interval("mcd", f"mcd.{op}", self.sim.now - command_cpu(op, payload))
        eng = self.engine
        if op == "get_multi":
            # One walk over the hits builds the reply and sizes it: the
            # values sent are the ones the lookup found and billed.
            reply = {}
            resp_bytes = 0
            for k, it in eng.get_multi(payload).items():
                nbytes = it.nbytes
                reply[k] = McValue(it.value, nbytes, it.flags, it.cas)
                resp_bytes += nbytes + VALUE_WIRE_OVERHEAD
            if reply:
                resp_bytes += key_nbytes("".join(reply))
                call.reply_cpu = COPY_PER_BYTE * resp_bytes
            return reply, resp_bytes
        if op in ("set", "add", "replace"):
            key, value, nbytes, flags, ttl = payload
            return getattr(eng, op)(key, value, nbytes, flags, ttl), 8
        if op == "set_multi":
            # Sets pipelined on one connection, each stored in request
            # order — a store is no cheaper, and ``cmd_set``, eviction
            # and LRU order are what the same sets sent one by one
            # produce.
            stored = []
            for key, value, nbytes, flags, ttl in payload:
                try:
                    stored.append(eng.set(key, value, nbytes, flags, ttl))
                except McTooLarge:
                    stored.append(False)
            return stored, 8 * len(stored)
        if op in ("append", "prepend"):
            key, value, nbytes = payload
            return getattr(eng, op)(key, value, nbytes), 8
        if op == "cas":
            key, value, nbytes, cas, flags, ttl = payload
            return eng.cas(key, value, nbytes, cas, flags, ttl), 8
        if op == "delete":
            return eng.delete(payload), 8
        if op == "delete_multi":
            return sum(1 for k in payload if eng.delete(k)), 8
        if op == "incr":
            key, delta = payload
            return eng.incr(key, delta), 8
        if op == "decr":
            key, delta = payload
            return eng.decr(key, delta), 8
        if op == "touch":
            key, ttl = payload
            return eng.touch(key, ttl), 8
        if op == "flush_all":
            eng.flush_all()
            return True, 8
        if op == "scan":
            cursor, limit, with_values = payload
            next_cursor, entries = eng.scan(cursor, limit)
            if not with_values:
                entries = [(k, None, nbytes, flags, ttl) for k, _v, nbytes, flags, ttl in entries]
                resp_bytes = sum(key_nbytes(e[0]) + KEY_WIRE_OVERHEAD for e in entries)
            else:
                resp_bytes = sum(e[2] + VALUE_WIRE_OVERHEAD + key_nbytes(e[0]) for e in entries)
            if resp_bytes:
                call.reply_cpu = COPY_PER_BYTE * resp_bytes
            return (next_cursor, entries), resp_bytes
        if op == "stats":
            return eng.stat_dict(), 512
        raise McError(f"unknown command {op!r}")


def command_cpu(op: str, payload: Any) -> float:
    """CPU a command costs the daemon before it can answer: the event
    loop and hash-table work per key, plus copying any value in.  The
    RPC layer charges it as part of the request's receive visit."""
    if op in ("get_multi", "delete_multi"):
        return OP_CPU * max(1, len(payload))
    if op == "set_multi":
        # Pipelined sets: one visit for the sum of their costs.
        cost = 0.0
        for item in payload:
            cost += OP_CPU + COPY_PER_BYTE * item[2]
        return cost
    if op in ("set", "add", "replace", "append", "prepend", "cas"):
        return OP_CPU + COPY_PER_BYTE * payload[2]
    if op == "scan":
        return OP_CPU * max(1, payload[1])
    if op in ("delete", "incr", "decr", "touch", "flush_all", "stats"):
        return OP_CPU
    # An unknown command is refused before any work.
    return 0.0


def request_size(op: str, payload: Any) -> int:
    """Wire size of a request (keys + values + framing)."""
    if op in ("get_multi", "delete_multi"):
        # The keys' bytes in one pass: UTF-8 lengths add under join.
        return key_nbytes("".join(payload)) + KEY_WIRE_OVERHEAD * len(payload)
    if op in ("set", "add", "replace"):
        key, _value, nbytes, _flags, _ttl = payload
        return key_nbytes(key) + KEY_WIRE_OVERHEAD + nbytes
    if op == "set_multi":
        keys, _values, sizes, _flags, _ttls = zip(*payload)
        return key_nbytes("".join(keys)) + KEY_WIRE_OVERHEAD * len(keys) + sum(sizes)
    if op in ("append", "prepend"):
        key, _value, nbytes = payload
        return key_nbytes(key) + KEY_WIRE_OVERHEAD + nbytes
    if op == "cas":
        key, _value, nbytes, _cas, _flags, _ttl = payload
        return key_nbytes(key) + KEY_WIRE_OVERHEAD + nbytes
    if op == "delete":
        return key_nbytes(payload) + KEY_WIRE_OVERHEAD
    if op in ("incr", "decr", "touch"):
        return key_nbytes(payload[0]) + KEY_WIRE_OVERHEAD
    return KEY_WIRE_OVERHEAD
