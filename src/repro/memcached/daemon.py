"""A memcached daemon running on a simulated node.

"Memcached is usually run as a daemon on spare nodes ... The Memcache
daemon may be accessed through TCP/IP connections" (§2.2).  The daemon
wraps a :class:`MemcachedEngine` behind one RPC service.  Per-op CPU is
tiny compared to a file-server op — an event-loop hash-table lookup —
which is precisely why a bank of MCDs scales past the GlusterFS server
(§4.4 "Latency for requests read from the cache is lower").
"""

from __future__ import annotations

from functools import reduce
from operator import add, attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.memcached.engine import McError, MemcachedEngine, key_nbytes
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

_NBYTES = attrgetter("nbytes")
#: A store item's key and value size: ``(key, value, nbytes, flags, ttl)``.
_ITEM_KEY = itemgetter(0)
_ITEM_NBYTES = itemgetter(2)
#: A store's CPU, ``OP_CPU + COPY_PER_BYTE * nbytes``, as two C calls.
_COPY_CPU = COPY_PER_BYTE.__mul__
_PLUS_OP_CPU = OP_CPU.__add__


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
        self.endpoint.register(SERVICE, self._serve)
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
        command's CPU (``call.recv_cpu``, priced by the caller with
        :func:`command_cost`); so it yields nothing: it does the engine
        work, leaves a reply's copy on ``call.reply_cpu`` for the
        response's send visit, and returns ``(reply, resp_bytes)``."""
        op, payload = call.args
        if self.tracer.enabled:
            # The command's CPU is the tail of the receive visit: book it
            # to the mcd tier, inside the request's network span.
            self.tracer.interval("mcd", f"mcd.{op}", self.sim.now - call.recv_cpu)
        eng = self.engine
        if op == "get_multi":
            # The engine's lookup loop builds the reply: the values sent
            # are the ones it found and billed.  Sized in C-level passes
            # over it (`key_nbytes` written out: UTF-8 lengths add under
            # join).
            reply = eng.get_multi(payload)
            if not reply:
                return reply, 0
            keys = "".join(reply)
            resp_bytes = (
                sum(map(_NBYTES, reply.values()))
                + (len(keys) if keys.isascii() else len(keys.encode()))
                + VALUE_WIRE_OVERHEAD * len(reply)
            )
            call.reply_cpu = COPY_PER_BYTE * resp_bytes
            return reply, resp_bytes
        if op in ("set", "add"):
            key, value, nbytes, flags, ttl = payload
            return getattr(eng, op)(key, value, nbytes, flags, ttl), 8
        if op == "set_multi":
            # Sets pipelined on one connection, stored in request order
            # by one engine loop — a store is no cheaper, and
            # ``cmd_set``, eviction and LRU order are what the same sets
            # sent one by one produce; a too-large item answers False.
            stored = eng.set_multi(payload)
            return stored, 8 * len(stored)
        if op == "delete_multi":
            return sum(eng.delete_multi(payload)), 8
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
        raise McError(f"unknown command {op!r}")


def command_cost(op: str, payload: Any) -> tuple[int, float]:
    """``(req_bytes, cpu)``: what a command costs, priced in one pass.

    *req_bytes* is the request's wire size: each key's UTF-8 bytes plus
    a flat ``KEY_WIRE_OVERHEAD`` (24 B) of framing per key, plus any
    value bytes.  This is not the text protocol's encoding: for the keys
    CMCache mints (``abspath:<offset>``, ``abspath:stat``), a ``get`` of
    1, 3 and 9 keys is charged 18, 21.3 and 22.4 B per key more than its
    encoded ``get <key>*`` line, a 2 KiB block ``set`` 7 B more, a
    ``:stat`` set 8 B more and a one-key ``delete_multi`` 15 B more than
    its ``delete <key>`` line; a response is charged about 21 B per
    value more than its ``VALUE`` framing (``VALUE_WIRE_OVERHEAD``,
    40 B).  Against a 2 KiB block that is under 1.1% of the bytes.

    *cpu* is what the daemon spends before it can answer: the event
    loop and hash-table work per key, plus copying any value in.  The
    RPC layer charges it as part of the request's receive visit on the
    daemon's CPU (``Endpoint.call``'s *recv_cpu*).  An unknown command
    (any outside ``get_multi``, ``set``, ``set_multi``, ``add``,
    ``delete_multi``, ``flush_all`` and ``scan``) is refused before any
    work, so it costs its bare framing and no CPU.  Keys are sized as :func:`key_nbytes` does, written out for a
    batch or a ``:stat`` push."""
    if op in ("get_multi", "delete_multi"):
        n = len(payload)
        keys = "".join(payload)
        # (`n or 1` is `max(1, n)`: a batch of none costs one command.)
        return (
            (len(keys) if keys.isascii() else len(keys.encode())) + KEY_WIRE_OVERHEAD * n,
            OP_CPU * (n or 1),
        )
    if op in ("set", "add"):
        key, _value, nbytes, _flags, _ttl = payload
        return (
            (len(key) if key.isascii() else len(key.encode())) + KEY_WIRE_OVERHEAD + nbytes,
            OP_CPU + COPY_PER_BYTE * nbytes,
        )
    if op == "set_multi":
        # Pipelined sets, one visit for the sum of their costs (an empty
        # batch sizes to 0, as an empty get_multi does), summed item by
        # item in order, in C-level passes over the items.
        keys = "".join(map(_ITEM_KEY, payload))
        sizes = list(map(_ITEM_NBYTES, payload))
        return (
            (len(keys) if keys.isascii() else len(keys.encode()))
            + sum(sizes)
            + KEY_WIRE_OVERHEAD * len(payload),
            reduce(add, map(_PLUS_OP_CPU, map(_COPY_CPU, sizes)), 0.0),
        )
    if op == "scan":
        return KEY_WIRE_OVERHEAD, OP_CPU * max(1, payload[1])
    if op == "flush_all":
        return KEY_WIRE_OVERHEAD, OP_CPU
    return KEY_WIRE_OVERHEAD, 0.0
