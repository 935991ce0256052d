"""Tests for the network fabric: latency, bandwidth, contention."""

import pytest

from repro.net import GIGE, IB_RDMA, IPOIB, Network, NetworkError, Node, profile
from repro.sim import Simulator
from repro.util import MiB, USEC


def make_net(transport=IPOIB, nodes=2):
    sim = Simulator()
    net = Network(sim, transport)
    ns = [Node(sim, f"n{i}") for i in range(nodes)]
    for n in ns:
        net.attach(n)
    return sim, net, ns


def test_profile_lookup():
    assert profile("ipoib") is IPOIB
    assert profile("ib-rdma") is IB_RDMA
    assert profile("gige") is GIGE
    with pytest.raises(KeyError):
        profile("myrinet")


def test_transport_ordering_small_message():
    """One-way small-message latency must order RDMA < IPoIB < GigE."""
    lats = {}
    for p in (IB_RDMA, IPOIB, GIGE):
        sim, net, (a, b) = make_net(p)
        got = []

        def proc(sim, net, a, b):
            yield net.transfer(a, b, 64)
            got.append(sim.now)

        sim.process(proc(sim, net, a, b))
        sim.run()
        lats[p.name] = got[0]
    assert lats["ib-rdma"] < lats["ipoib"] < lats["gige"]


def test_small_message_latency_magnitude():
    """IPoIB 64-byte one-way latency should be tens of microseconds."""
    sim, net, (a, b) = make_net(IPOIB)

    def proc(sim, net, a, b):
        yield net.transfer(a, b, 64)

    sim.process(proc(sim, net, a, b))
    sim.run()
    assert 25 * USEC < sim.now < 200 * USEC


def test_large_transfer_is_bandwidth_bound():
    sim, net, (a, b) = make_net(IPOIB)
    size = 64 * MiB

    def proc(sim, net, a, b):
        yield net.transfer(a, b, size)

    sim.process(proc(sim, net, a, b))
    sim.run()
    expected = size / IPOIB.bandwidth  # tx serialisation dominates
    assert sim.now == pytest.approx(expected, rel=0.25)


def test_receiver_nic_contention_serializes():
    """Many senders into one receiver: total time ~ N * size/bw."""
    sim = Simulator()
    net = Network(sim, IPOIB)
    server = Node(sim, "server")
    net.attach(server)
    n, size = 8, 4 * MiB
    clients = [Node(sim, f"c{i}") for i in range(n)]
    for c in clients:
        net.attach(c)

    def sender(sim, net, c, server):
        yield net.transfer(c, server, size)

    for c in clients:
        sim.process(sender(sim, net, c, server))
    sim.run()
    serial = n * size / IPOIB.bandwidth
    assert sim.now == pytest.approx(serial, rel=0.1)


def test_disjoint_pairs_run_in_parallel():
    sim = Simulator()
    net = Network(sim, IPOIB)
    size = 8 * MiB
    pairs = []
    for i in range(4):
        a, b = Node(sim, f"a{i}"), Node(sim, f"b{i}")
        net.attach(a)
        net.attach(b)
        pairs.append((a, b))

    def sender(sim, net, a, b):
        yield net.transfer(a, b, size)

    for a, b in pairs:
        sim.process(sender(sim, net, a, b))
    sim.run()
    one = size / IPOIB.bandwidth
    # All four transfers overlap: total ~ a single transfer.
    assert sim.now == pytest.approx(one, rel=0.25)


def test_transfer_to_dead_node_raises():
    sim, net, (a, b) = make_net()
    b.fail()
    caught = []

    def proc(sim, net, a, b):
        try:
            yield net.transfer(a, b, 100)
        except NetworkError as e:
            caught.append(str(e))

    sim.process(proc(sim, net, a, b))
    sim.run()
    assert caught and "down" in caught[0]


def test_recovered_node_reachable():
    sim, net, (a, b) = make_net()
    b.fail()
    b.recover()

    def proc(sim, net, a, b):
        yield net.transfer(a, b, 100)

    sim.process(proc(sim, net, a, b))
    sim.run()
    assert sim.now > 0


def test_unattached_node_rejected():
    sim = Simulator()
    net = Network(sim, IPOIB)
    a = Node(sim, "a")
    b = Node(sim, "b")
    net.attach(a)
    with pytest.raises(NetworkError):
        net.transfer(a, b, 10)


def test_double_attach_rejected():
    sim = Simulator()
    net = Network(sim, IPOIB)
    a = Node(sim, "a")
    net.attach(a)
    with pytest.raises(ValueError):
        net.attach(a)


def test_negative_size_rejected():
    sim, net, (a, b) = make_net()
    with pytest.raises(ValueError):
        net.transfer(a, b, -1)


def test_message_and_byte_stats():
    sim, net, (a, b) = make_net()

    def proc(sim, net, a, b):
        yield net.transfer(a, b, 100)
        yield net.transfer(b, a, 50)

    sim.process(proc(sim, net, a, b))
    sim.run()
    assert net.stats.get("messages") == 2
    assert net.stats.get("bytes") == 150
