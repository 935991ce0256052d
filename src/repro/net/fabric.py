"""Cluster nodes and the network fabric.

A :class:`Node` owns a host CPU station (``cores`` service threads).
A :class:`Network` attaches a pair of NIC serialiser stations (tx/rx)
to each node and moves messages through five FIFO stations::

    sender CPU -> sender NIC tx -> wire latency -> receiver NIC rx -> receiver CPU

Each hop is an analytic :class:`~repro.sim.station.FifoStation`
reservation chained through the message's in-flight time, so a complete
one-way transfer costs a *single* schedule entry.  Contention (many clients
hammering one server NIC) emerges from the rx station's queue.

The fabric models a full-bisection switch (true of the paper's single
IB switch): only end-host NICs and CPUs are capacity-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from typing import TYPE_CHECKING, Optional, Union

from repro.sim.events import Event
from repro.sim.process import departure
from repro.sim.station import FifoStation
from repro.util.stats import Counter

from repro.net.profiles import TransportProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class NetworkError(Exception):
    """A transfer addressed a dead or unknown node, or the message was
    lost on a degraded link."""


@dataclass
class LinkImpairment:
    """Degradation applied to every message touching one endpoint.

    ``extra_latency`` is added to the wire latency once per impaired
    endpoint on the path; ``loss_prob`` is the per-message drop
    probability (probabilities from both endpoints combine as
    independent drops).
    """

    extra_latency: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_latency < 0:
            raise ValueError(f"negative extra_latency: {self.extra_latency}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"loss_prob must be in [0, 1]: {self.loss_prob}")


class Node:
    """A cluster host: named, with a multi-core CPU station."""

    def __init__(self, sim: "Simulator", name: str, cores: int = 8) -> None:
        self.sim = sim
        self.name = name
        self.cpu = FifoStation(sim, servers=cores, name=f"{name}.cpu")
        self.alive = True
        #: Service registry used by the RPC layer (service name ->
        #: (handler, arrival CPU or None); see ``Endpoint.register``).
        self.services: dict[str, tuple] = {}

    def fail(self) -> None:
        """Mark the node dead; future transfers to it raise/err."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name} {'up' if self.alive else 'DOWN'}>"


class _Nic:
    """tx/rx serialiser pair for one node on one network."""

    __slots__ = ("tx", "rx")

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.tx = FifoStation(sim, 1, f"{name}.tx")
        self.rx = FifoStation(sim, 1, f"{name}.rx")


class Network:
    """A switched network running one transport profile."""

    def __init__(self, sim: "Simulator", transport: TransportProfile, name: str = "net"):
        self.sim = sim
        self.transport = transport
        self.name = name
        self._nics: dict[str, _Nic] = {}
        self.stats = Counter()
        #: Per-endpoint impairments (node name -> :class:`LinkImpairment`).
        #: Empty on a healthy fabric; the delivery-time fast path skips
        #: the lookup entirely so healthy runs stay float-identical.
        self._impaired: dict[str, LinkImpairment] = {}
        #: RNG used for per-message loss draws (a ``numpy`` Generator
        #: from :class:`~repro.sim.rand.RandomStreams`).  Must be set
        #: before any non-zero ``loss_prob`` impairment is armed.
        self.loss_rng = None

    # -- degradation -----------------------------------------------------
    def degrade(
        self, node, extra_latency: float = 0.0, loss_prob: float = 0.0
    ) -> None:
        """Impair all traffic touching *node* (a :class:`Node` or name)."""
        name = node.name if isinstance(node, Node) else str(node)
        if loss_prob > 0.0 and self.loss_rng is None:
            raise ValueError(
                f"{self.name}: loss_prob needs a loss_rng (see RandomStreams)"
            )
        self._impaired[name] = LinkImpairment(extra_latency, loss_prob)
        self.stats.inc("degrades")

    def restore(self, node) -> None:
        """Remove any impairment on *node*; no-op when none is armed."""
        name = node.name if isinstance(node, Node) else str(node)
        if self._impaired.pop(name, None) is not None:
            self.stats.inc("restores")

    def impairment(self, node) -> Optional[LinkImpairment]:
        name = node.name if isinstance(node, Node) else str(node)
        return self._impaired.get(name)

    def _extra_wire(self, src: Node, dst: Node) -> float:
        extra = 0.0
        imp = self._impaired.get(src.name)
        if imp is not None:
            extra += imp.extra_latency
        imp = self._impaired.get(dst.name)
        if imp is not None:
            extra += imp.extra_latency
        return extra

    def _drop_message(self, src: Node, dst: Node) -> bool:
        """One Bernoulli draw per impaired endpoint on the path."""
        if self.loss_rng is None:
            return False
        for name in (src.name, dst.name):
            imp = self._impaired.get(name)
            if imp is not None and imp.loss_prob > 0.0:
                if float(self.loss_rng.random()) < imp.loss_prob:
                    return True
        return False

    # -- membership ------------------------------------------------------
    def attach(self, node: Node) -> None:
        """Give *node* a NIC on this network."""
        if node.name in self._nics:
            raise ValueError(f"{node.name} already attached to {self.name}")
        self._nics[node.name] = _Nic(self.sim, f"{self.name}.{node.name}")

    def attached(self, node: Node) -> bool:
        return node.name in self._nics

    def nic(self, node: Node) -> _Nic:
        try:
            return self._nics[node.name]
        except KeyError:
            raise NetworkError(f"{node.name} not attached to {self.name}") from None

    # -- data movement ---------------------------------------------------
    def delivery_time(
        self,
        src: Node,
        dst: Node,
        size: int,
        send_cpu: float = 0.0,
        recv_cpu: float = 0.0,
        depart: Optional[float] = None,
    ) -> float:
        """Reserve all stations for one message; return absolute delivery
        time.  Raises :class:`NetworkError` if either endpoint is dead.

        The sender's CPU visit arrives at *depart*: by default now, or
        the active runner's ``ready`` if that is later — a message sent
        by an op that runs ahead of its FUSE crossing leaves when the
        crossing ends (DESIGN §7, "The FUSE crossing runs ahead").  No
        other station looks at ``ready``.

        *send_cpu* and *recv_cpu* are extra host-CPU seconds the sender's
        and the receiver's CPU visits carry on top of the protocol cost:
        work that sits back to back with the hop on the same station (an
        RPC service's command CPU, its reply copy) rides the hop's visit
        instead of booking one of its own.  Adding ``0.0`` is exact, so a
        plain message is float-identical to one without the arguments.

        The four visits are :meth:`FifoStation.reserve` written out in
        line, each arriving when the one before it lets go (``reserve``
        is the specification; ``tests/net/test_one_pass_hop.py`` holds
        this pass to it).  A NIC serialiser has one server, so its free
        heap is a plain cell.
        """
        if not src.alive:
            raise NetworkError(f"source {src.name} is down")
        if not dst.alive:
            raise NetworkError(f"destination {dst.name} is down")
        if size < 0:
            raise ValueError("negative message size")
        p = self.transport
        nics = self._nics
        try:
            tx = nics[src.name].tx
            rx = nics[dst.name].rx
        except KeyError as e:
            raise NetworkError(f"{e.args[0]} not attached to {self.name}") from None

        # Profile maths inlined (same expressions as TransportProfile's
        # host_cost/serialization, so timestamps stay float-identical).
        wire = p.wire_latency
        if self._impaired:
            wire += self._extra_wire(src, dst)
        copy_cost = p.cpu_per_byte * size
        ser = size / p.bandwidth
        if depart is None:
            depart = departure(self.sim)

        # Sender host CPU (protocol + copy for non-RDMA transports).
        cpu = src.cpu
        service = p.cpu_send + copy_cost + send_cpu
        free_heap = cpu._free
        free = free_heap[0]
        start = free if free > depart else depart
        t = start + service
        if cpu.servers == 1:
            free_heap[0] = t
        else:
            heapreplace(free_heap, t)
        if t > cpu._latest_free:
            cpu._latest_free = t
        cpu.busy_time += service
        cpu.jobs += 1
        if cpu._track_waits:
            cpu.wait_stats.add(start - depart)

        # Sender NIC serialisation.
        free = tx._free[0]
        tx_start = free if free > t else t
        tx_end = tx_start + ser
        tx._free[0] = tx_end
        if tx_end > tx._latest_free:
            tx._latest_free = tx_end
        tx.busy_time += ser
        tx.jobs += 1
        if tx._track_waits:
            tx.wait_stats.add(tx_start - t)

        # Cut-through: the receiver NIC starts taking bytes one wire
        # latency after the first byte leaves, and finishes no earlier
        # than one wire latency after the last byte leaves.
        arrival = tx_start + wire
        free = rx._free[0]
        start = free if free > arrival else arrival
        rx_end = start + ser
        rx._free[0] = rx_end
        if rx_end > rx._latest_free:
            rx._latest_free = rx_end
        rx.busy_time += ser
        rx.jobs += 1
        if rx._track_waits:
            rx.wait_stats.add(start - arrival)
        tx_end += wire
        arrival = tx_end if tx_end > rx_end else rx_end

        # Receiver host CPU.
        cpu = dst.cpu
        service = p.cpu_recv + copy_cost + recv_cpu
        free_heap = cpu._free
        free = free_heap[0]
        start = free if free > arrival else arrival
        t = start + service
        if cpu.servers == 1:
            free_heap[0] = t
        else:
            heapreplace(free_heap, t)
        if t > cpu._latest_free:
            cpu._latest_free = t
        cpu.busy_time += service
        cpu.jobs += 1
        if cpu._track_waits:
            cpu.wait_stats.add(start - arrival)

        values = self.stats.values
        if "messages" in values:
            values["messages"] += 1
            values["bytes"] += size
        else:
            values["messages"] = 1
            values["bytes"] = size
        return t

    def _undeliverable(
        self, src: Node, dst: Node, size: int, send_cpu: float, reason: str
    ) -> Event:
        """An event that *fails* once the message's one-way traversal has
        been charged.

        A sender cannot know the far end is dead (or that the switch
        dropped the frame) at submit time: it pays its own CPU (with its
        *send_cpu* — that work was done, from the same departure instant
        as a delivered message) and NIC serialisation, plus one wire
        latency, before any error can surface.  The receiver-side
        stations are not charged, its extra CPU included — nothing
        arrives there.
        """
        p = self.transport
        src_nic = self.nic(src)
        wire = p.wire_latency
        if self._impaired:
            wire += self._extra_wire(src, dst)
        t = departure(self.sim)
        _, t = src.cpu.reserve(p.cpu_send + p.cpu_per_byte * size + send_cpu, arrival=t)
        _, tx_end = src_nic.tx.reserve(size / p.bandwidth, arrival=t)
        self.stats.inc("undeliverable")
        ev = Event(self.sim)
        ev._ok = False
        ev._value = NetworkError(reason)
        self.sim._schedule(ev, at=tx_end + wire)
        return ev

    def transfer(
        self, src: Node, dst: Node, size: int, send_cpu: float = 0.0, recv_cpu: float = 0.0
    ) -> Union[float, Event]:
        """One-way message: returns the absolute time the last byte
        lands in the receiver's memory (and the receiver's CPU visit,
        *recv_cpu* included, ends), for the calling process to yield.
        ``yield net.transfer(a, b, nbytes)``.  See :meth:`delivery_time`
        for the extra CPU arguments.

        A dead *destination* (or a message lost on a degraded link) does
        not raise here: what is returned is an event that **fails** with
        :class:`NetworkError` only after the one-way traversal has been
        charged, so failure timing is physical.  A dead *source* still
        raises synchronously — the sender knows its own state.
        """
        if size < 0:
            raise ValueError("negative message size")
        sim = self.sim
        if not src.alive:
            raise NetworkError(f"source {src.name} is down")
        if not dst.alive:
            return self._undeliverable(
                src, dst, size, send_cpu, f"destination {dst.name} is down"
            )
        if self._impaired and self._drop_message(src, dst):
            self.stats.inc("lost")
            return self._undeliverable(
                src, dst, size, send_cpu, f"message {src.name} -> {dst.name} lost"
            )
        # `departure(sim)`, written out: a call per message would cost
        # every op in `tests/test_call_budget.py` a frame per hop.
        depart = sim._now
        runner = sim._active_process
        if runner is not None and runner.ready > depart:
            depart = runner.ready
        t = self.delivery_time(src, dst, size, send_cpu, recv_cpu, depart)
        # Not `t`: a delay from the departure, as `FifoStation.run` is
        # one from now (a runner that waited out its `ready` would wake
        # at that float and send from there).
        return depart + (t - depart)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Network {self.name} ({self.transport.name}) nodes={len(self._nics)}>"
