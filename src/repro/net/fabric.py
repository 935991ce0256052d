"""Cluster nodes and the network fabric.

A :class:`Node` owns a host CPU station (``cores`` service threads).
A :class:`Network` attaches a pair of NIC serialiser stations (tx/rx)
to each node and moves each message through four FIFO station visits
and one wire latency::

    sender CPU -> sender NIC tx -> wire latency -> receiver NIC rx -> receiver CPU

Each visit is an analytic :class:`~repro.sim.station.FifoStation`
reservation chained through the message's in-flight time, so a complete
one-way transfer costs a *single* schedule entry.  Contention (many clients
hammering one server NIC) emerges from the rx station's queue.

The fabric models a full-bisection switch (true of the paper's single
IB switch): only end-host NICs and CPUs are capacity-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.sim.events import Event
from repro.sim.process import departure
from repro.sim.station import FifoStation
from repro.util.stats import Counter, Tally

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
    """A cluster host: named, with a multi-core CPU station (§5.1's
    8-core Clovertown node unless a caller asks for fewer cores)."""

    def __init__(self, sim: "Simulator", name: str, cores: int = 8) -> None:
        self.sim = sim
        self.name = name
        self.cpu = FifoStation(sim, servers=cores, name=f"{name}.cpu")
        self.alive = True
        #: The RPC layer's service name -> handler (``Endpoint.register``).
        self.services: dict[str, Callable] = {}

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


class Network(Tally):
    """A switched network running one transport profile."""

    TALLY = ("messages", "bytes")

    def __init__(self, sim: "Simulator", transport: TransportProfile, name: str = "net"):
        self.sim = sim
        self.transport = transport
        self.name = name
        self._nics: dict[str, _Nic] = {}
        self.stats = self._tally(Counter())
        #: Per-endpoint impairments (node name -> :class:`LinkImpairment`).
        #: Empty on a healthy fabric; the delivery-time fast path skips
        #: the lookup entirely so healthy runs stay float-identical.
        self._impaired: dict[str, LinkImpairment] = {}
        #: (src, dst) -> its :class:`Hop`, built on first use.
        self._hops: dict[tuple[Node, Node], Hop] = {}
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

    def hop(self, src: Node, dst: Node) -> "Hop":
        """The one-way route from *src* to *dst*: built on first use,
        then the same object.  Raises :class:`NetworkError` if either
        node is not attached."""
        hop = self._hops.get((src, dst))
        if hop is None:
            hop = self._hops[(src, dst)] = Hop(self, src, dst)
        return hop

    def transfer(
        self, src: Node, dst: Node, size: int, send_cpu: float = 0.0, recv_cpu: float = 0.0
    ) -> Union[float, Event]:
        """One-way message from *src* to *dst*: :meth:`Hop.send` on the
        pair's bound hop.  ``yield net.transfer(a, b, nbytes)``."""
        hop = self._hops.get((src, dst))
        if hop is None:
            hop = self.hop(src, dst)
        return hop.send(size, send_cpu, recv_cpu)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Network {self.name} ({self.transport.name}) nodes={len(self._nics)}>"


class Hop:
    """One direction between two attached nodes, resolved once: the
    four stations a message visits — the sender's CPU, its NIC's tx,
    the receiver NIC's rx and the receiver's CPU — their free-time
    heaps, and whether each CPU has a single core
    (:meth:`Network.hop`).  The nodes' liveness and the network's
    impairments are still read on every message (:meth:`send`)."""

    __slots__ = (
        "net", "sim", "src", "dst", "src_cpu", "tx", "rx", "dst_cpu",
        "src_free", "tx_free", "rx_free", "dst_free", "src_one", "dst_one",
    )

    def __init__(self, net: Network, src: Node, dst: Node) -> None:
        self.net = net
        self.sim = net.sim
        self.src = src
        self.dst = dst
        self.src_cpu = src.cpu
        self.tx = net.nic(src).tx
        self.rx = net.nic(dst).rx
        self.dst_cpu = dst.cpu
        # A station's heap is one list for its life.
        self.src_free = src.cpu._free
        self.tx_free = self.tx._free
        self.rx_free = self.rx._free
        self.dst_free = dst.cpu._free
        self.src_one = src.cpu.servers == 1
        self.dst_one = dst.cpu.servers == 1

    def send(self, size: int, send_cpu: float = 0.0, recv_cpu: float = 0.0) -> Union[float, Event]:
        """One message: returns the absolute time the last byte lands in
        the receiver's memory (and the receiver's CPU visit, *recv_cpu*
        included, ends), for the calling process to yield.

        The sender's CPU visit arrives at the message's departure: now,
        or the active runner's ``ready`` if that is later — a message
        sent by an op that runs ahead of its FUSE crossing leaves when
        the crossing ends (DESIGN §7, "The FUSE crossing runs ahead").
        No other station looks at ``ready``.

        *send_cpu* and *recv_cpu* are extra host-CPU seconds the sender's
        and the receiver's CPU visits carry on top of the protocol cost:
        work that sits back to back with the hop on the same station (an
        RPC service's command CPU, its reply copy) rides the hop's visit
        instead of booking one of its own.  Adding ``0.0`` is exact, so a
        plain message is float-identical to one without the arguments.

        A message is one pass.  The four visits are
        :meth:`FifoStation.reserve` written out in line, each arriving
        when the one before it lets go (``reserve`` is the
        specification; ``tests/net/test_one_pass_hop.py`` holds this
        pass to it); a NIC serialiser has one server, so its free heap is
        a plain cell.  The stations' statistics are booked in one block
        after the four, and only while ``sim.track_station_stats`` is on.

        A dead *destination* (or a message lost on a degraded link) does
        not raise here: what is returned is an event that **fails** with
        :class:`NetworkError` only after the one-way traversal has been
        charged, so failure timing is physical.  A dead *source* still
        raises synchronously — the sender knows its own state.
        """
        if size < 0:
            raise ValueError("negative message size")
        src, dst, net = self.src, self.dst, self.net
        if not src.alive:
            raise NetworkError(f"source {src.name} is down")
        if not dst.alive:
            return net._undeliverable(
                src, dst, size, send_cpu, f"destination {dst.name} is down"
            )
        p = net.transport
        # Profile maths inlined (same expressions as TransportProfile's
        # host_cost/serialization, so timestamps stay float-identical).
        wire = p.wire_latency
        if net._impaired:
            if net._drop_message(src, dst):
                net.stats.inc("lost")
                return net._undeliverable(
                    src, dst, size, send_cpu, f"message {src.name} -> {dst.name} lost"
                )
            wire += net._extra_wire(src, dst)
        copy_cost = p.cpu_per_byte * size
        ser = size / p.bandwidth
        # `departure(sim)`, written out: a call per message would cost
        # every op in `tests/test_call_budget.py` a frame per hop.
        sim = self.sim
        depart = sim._now
        runner = sim._active_process
        if runner is not None and runner.ready > depart:
            depart = runner.ready

        # Sender host CPU (protocol + copy for non-RDMA transports).
        send = p.cpu_send + copy_cost + send_cpu
        free_heap = self.src_free
        free = free_heap[0]
        send_start = free if free > depart else depart
        sent = send_start + send
        if self.src_one:
            free_heap[0] = sent
        else:
            heapreplace(free_heap, sent)

        # Sender NIC serialisation.
        tx_free = self.tx_free
        free = tx_free[0]
        tx_start = free if free > sent else sent
        tx_end = tx_start + ser
        tx_free[0] = tx_end

        # Cut-through: the receiver NIC starts taking bytes one wire
        # latency after the first byte leaves, and finishes no earlier
        # than one wire latency after the last byte leaves.
        rx_arrival = tx_start + wire
        rx_free = self.rx_free
        free = rx_free[0]
        rx_start = free if free > rx_arrival else rx_arrival
        rx_end = rx_start + ser
        rx_free[0] = rx_end
        tx_end += wire
        arrival = tx_end if tx_end > rx_end else rx_end

        # Receiver host CPU.
        recv = p.cpu_recv + copy_cost + recv_cpu
        free_heap = self.dst_free
        free = free_heap[0]
        recv_start = free if free > arrival else arrival
        t = recv_start + recv
        if self.dst_one:
            free_heap[0] = t
        else:
            heapreplace(free_heap, t)

        if sim.track_station_stats:
            # What `reserve` books per visit, in visit order.
            src_cpu, tx, rx, dst_cpu = self.src_cpu, self.tx, self.rx, self.dst_cpu
            src_cpu.busy_time += send
            src_cpu.jobs += 1
            src_cpu.wait_stats.add(send_start - depart)
            tx.busy_time += ser
            tx.jobs += 1
            tx.wait_stats.add(tx_start - sent)
            rx.busy_time += ser
            rx.jobs += 1
            rx.wait_stats.add(rx_start - rx_arrival)
            dst_cpu.busy_time += recv
            dst_cpu.jobs += 1
            dst_cpu.wait_stats.add(recv_start - arrival)

        # Every message, observed or not: `perf/ledger.py` reads these
        # from an unobserved pass.
        net._n_messages += 1
        net._n_bytes += size
        # Not `t`: a delay from the departure, as `FifoStation.run` is
        # one from now (a runner that waited out its `ready` would wake
        # at that float and send from there).
        return depart + (t - depart)
