"""Tests for vectored network delivery: delivery_time_batch / transfer_batch."""

import pytest

from repro.net import IPOIB, Network, NetworkError, Node
from repro.sim import Simulator


def make_net(transport=IPOIB, nodes=2):
    sim = Simulator()
    net = Network(sim, transport)
    ns = [Node(sim, f"n{i}") for i in range(nodes)]
    for n in ns:
        net.attach(n)
    return sim, net, ns


def test_batch_conserves_station_busy_time():
    """A burst charges every station the same aggregate busy time as
    the equivalent scalar transfers on a twin network."""
    sizes = [4096, 512, 16384]
    sim_b, net_b, (a_b, b_b) = make_net()
    net_b.delivery_time_batch(a_b, b_b, sizes)
    sim_s, net_s, (a_s, b_s) = make_net()
    last = 0.0
    for s in sizes:
        last = net_s.delivery_time(a_s, b_s, s)

    for batch_net, scalar_net, src, dst in [(net_b, net_s, a_b, a_s)]:
        assert src.cpu.busy_time == a_s.cpu.busy_time
        assert batch_net.nic(a_b).tx.busy_time == scalar_net.nic(a_s).tx.busy_time
        assert batch_net.nic(b_b).rx.busy_time == scalar_net.nic(b_s).rx.busy_time
    assert b_b.cpu.busy_time == b_s.cpu.busy_time
    assert net_b.stats.values["messages"] == 3
    assert net_b.stats.values["bytes"] == sum(sizes)
    assert net_b.stats.values["batches"] == 1


def test_single_message_batch_matches_scalar_delivery():
    """A burst of one is the same reservation chain as the scalar path,
    so its delivery time must be float-identical."""
    sim_b, net_b, (a_b, b_b) = make_net()
    t_batch = net_b.delivery_time_batch(a_b, b_b, [4096])
    sim_s, net_s, (a_s, b_s) = make_net()
    t_scalar = net_s.delivery_time(a_s, b_s, 4096)
    assert t_batch == t_scalar


def test_transfer_batch_fires_once_for_whole_burst():
    sim, net, (a, b) = make_net()
    done = []

    def proc():
        yield net.transfer_batch(a, b, [4096] * 8)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    # The event fires exactly when a twin network books the same burst.
    _, twin_net, (ta, tb) = make_net()
    assert done == [twin_net.delivery_time_batch(ta, tb, [4096] * 8)]
    # Process start + one burst completion + process exit.
    assert sim._seq == 3
    assert net.stats.values["messages"] == 8


def test_transfer_batch_empty_burst_completes_immediately():
    sim, net, (a, b) = make_net()
    done = []

    def proc():
        yield net.transfer_batch(a, b, [])
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0]
    assert net.stats.values.get("messages", 0) == 0


def test_transfer_batch_failure_semantics():
    sim, net, (a, b) = make_net()
    b.fail()
    caught = []

    def proc():
        try:
            yield net.transfer_batch(a, b, [4096, 4096])
        except NetworkError as e:
            caught.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    assert len(caught) == 1
    assert caught[0][0] > 0.0  # failure surfaces after the traversal
    assert "down" in caught[0][1]
    # Dead source raises synchronously, matching transfer().
    a.fail()
    with pytest.raises(NetworkError):
        net.transfer_batch(a, b, [64])
    with pytest.raises(ValueError):
        net.transfer_batch(a, b, [64, -1])


def test_zero_size_messages_in_batch_conserve_busy_time():
    """Zero-byte messages are legal burst members: no serialisation or
    copy cost, but protocol CPU and wire latency are still paid, and
    aggregate busy time matches the scalar twin."""
    sizes = [0, 4096, 0]
    sim_b, net_b, (a_b, b_b) = make_net()
    t_batch = net_b.delivery_time_batch(a_b, b_b, sizes)
    sim_s, net_s, (a_s, b_s) = make_net()
    for s in sizes:
        net_s.delivery_time(a_s, b_s, s)
    assert t_batch > 0.0  # wire latency + protocol CPU still charged
    assert a_b.cpu.busy_time == pytest.approx(a_s.cpu.busy_time)
    assert b_b.cpu.busy_time == pytest.approx(b_s.cpu.busy_time)
    assert net_b.nic(a_b).tx.busy_time == pytest.approx(net_s.nic(a_s).tx.busy_time)
    assert net_b.nic(b_b).rx.busy_time == pytest.approx(net_s.nic(b_s).rx.busy_time)
    assert net_b.stats.values["messages"] == 3
    assert net_b.stats.values["bytes"] == sum(sizes)


def test_all_zero_batch_matches_scalar_zero_transfer():
    """A single zero-byte batch is float-identical to the scalar
    zero-byte delivery (the degenerate single-item equivalence)."""
    sim_b, net_b, (a_b, b_b) = make_net()
    t_batch = net_b.delivery_time_batch(a_b, b_b, [0])
    sim_s, net_s, (a_s, b_s) = make_net()
    assert t_batch == net_s.delivery_time(a_s, b_s, 0)
