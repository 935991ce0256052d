"""A message hop is one pass: ``Network.transfer`` (its bound
:class:`~repro.net.fabric.Hop`'s ``send``) books sender CPU, tx, rx and
receiver CPU in line, without calling
``FifoStation.reserve``, and books the four stations' statistics in one
block only while the simulator is observed.

``reserve`` stays the specification.  The reference below is the hop
written as four chained ``reserve(arrival=)`` calls; random message
sequences run through both on twin fabrics, and after every message the
return value and every station's whole state must be equal — on 1- and
8-core hosts, with many senders contending for one receiver's rx, across
an impaired link, with station statistics tracked and not, with and
without extra sender/receiver CPU riding the host visits.  Tracked,
every station's busy time, jobs and waits equal the chain's; untracked,
the free times and the return value are equal and no statistic moves.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import GIGE, IB_RDMA, IPOIB, Network, Node, TransportProfile
from repro.sim import Simulator

HOSTS = 4  # node 0 is the contended receiver

#: The calibrated profiles all charge a send what they charge a receive.
SKEWED = TransportProfile(
    "skewed", wire_latency=9e-6, bandwidth=3e8, cpu_send=3e-6, cpu_recv=11e-6, cpu_per_byte=1e-10
)


def reference_delivery_time(net, src, dst, size, send_cpu=0.0, recv_cpu=0.0):
    """The hop as a chain of four single-visit reservations."""
    p = net.transport
    wire = p.wire_latency + net._extra_wire(src, dst)
    copy_cost = p.cpu_per_byte * size
    ser = size / p.bandwidth
    _, t = src.cpu.reserve(p.cpu_send + copy_cost + send_cpu, arrival=net.sim.now)
    tx_start, tx_end = net.nic(src).tx.reserve(ser, arrival=t)
    _, rx_end = net.nic(dst).rx.reserve(ser, arrival=tx_start + wire)
    t = max(tx_end + wire, rx_end)
    _, t = dst.cpu.reserve(p.cpu_recv + copy_cost + recv_cpu, arrival=t)
    return t


def _fabric(transport, cores, track_stats):
    sim = Simulator()
    sim.track_station_stats = track_stats
    net = Network(sim, transport)
    nodes = [Node(sim, f"n{i}", cores=cores) for i in range(HOSTS)]
    for node in nodes:
        net.attach(node)
    return sim, net, nodes


def _state(net, nodes):
    """Everything a station remembers, for every station of the fabric."""
    out = []
    for node in nodes:
        nic = net.nic(node)
        for station in (node.cpu, nic.tx, nic.rx):
            w = station.wait_stats
            out.append((
                station.name, sorted(station._free),
                station.busy_time, station.jobs,
                (w.n, w.total, w.mean, w.variance, w.min, w.max),
            ))
    return out


messages = st.lists(
    st.tuples(
        st.integers(1, HOSTS - 1),  # sender
        st.sampled_from((0, 0, 0, 1, 2, 3)),  # receiver: mostly the hot one
        st.sampled_from((0, 1, 96, 2144, 16480, 1 << 20)),  # bytes
        st.sampled_from((0.0, 0.0, 1e-6, 40e-6, 5e-3)),  # clock advance first
        st.sampled_from(((0.0, 0.0), (0.0, 0.0), (0.0, 3e-6), (1.5e-9, 0.0))),  # extra CPU
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from((IPOIB, IB_RDMA, GIGE, SKEWED)),
    st.sampled_from((1, 8)),
    st.booleans(),
    st.sampled_from((None, 0, 2)),
    messages,
)
def test_one_pass_hop_matches_four_chained_reservations(
    transport, cores, track_stats, impaired, sequence
):
    sim_a, net_a, nodes_a = _fabric(transport, cores, track_stats)
    sim_b, net_b, nodes_b = _fabric(transport, cores, track_stats)
    if impaired is not None:
        net_a.degrade(nodes_a[impaired], extra_latency=7e-6)
        net_b.degrade(nodes_b[impaired], extra_latency=7e-6)
    for s, d, size, advance, extra in sequence:
        if s == d:
            d = 0
        for sim in (sim_a, sim_b):
            sim.run(until=sim.now + advance)
        now = sim_a.now
        got = net_a.transfer(nodes_a[s], nodes_a[d], size, *extra)
        want = reference_delivery_time(net_b, nodes_b[s], nodes_b[d], size, *extra)
        assert got == now + (want - now)
        assert _state(net_a, nodes_a) == _state(net_b, nodes_b)
    assert net_a.stats.values["messages"] == len(sequence)
    assert net_a.stats.values["bytes"] == sum(size for _, _, size, *_ in sequence)
    state = _state(net_a, nodes_a)
    visits = 4 * len(sequence) if track_stats else 0
    assert sum(jobs for _, _, _, jobs, _ in state) == visits
    assert sum(waits[0] for *_, waits in state) == visits
    if not track_stats:
        assert all(busy == 0.0 for _, _, busy, _, _ in state)


def test_transfer_returns_the_delivery_time_as_now_plus_delay():
    """A delivery is scheduled at ``now + (t - now)``, which is not
    always ``t``: the queued messages of a burst show the last bit."""
    sim, net, (_, a, b, _) = _fabric(IPOIB, 8, True)
    twin_sim, twin_net, (_, ta, tb, _) = _fabric(IPOIB, 8, True)
    for s in (sim, twin_sim):
        s.run(until=0.1)
    got = [net.transfer(a, b, 1 << 20) for _ in range(130)]
    want = [reference_delivery_time(twin_net, ta, tb, 1 << 20) for _ in range(130)]
    assert all(type(when) is float for when in got)
    assert got == [0.1 + (t - 0.1) for t in want]
    assert got != want  # from the 118th on, a quarter second out

    landed = []

    def proc():
        yield got[-1]
        landed.append(sim.now)

    sim.process(proc())
    sim.run()
    assert landed == [got[-1]]


def test_negative_size_is_rejected_before_any_station_is_booked():
    sim, net, (_, a, b, _) = _fabric(IPOIB, 8, True)
    with pytest.raises(ValueError):
        net.transfer(a, b, -1)
    assert a.cpu.jobs == 0 and net.nic(a).tx.jobs == 0
    assert a.cpu._free == [0.0] * 8 and net.nic(a).tx._free == [0.0]


@pytest.mark.parametrize("cores", (1, 8))
def test_a_healthy_unobserved_transfer_makes_no_python_call(cores):
    """The per-message pass is one frame: checks, four visits and the
    message counters written out, no helper entered (a ``heapreplace``
    on an 8-core CPU is a C call).  It is the bound hop's ``send``;
    ``Network.transfer`` only looks the hop up."""
    sim, net, (_, a, b, _) = _fabric(IPOIB, cores, False)
    net.transfer(a, b, 96)  # the hop's and the counters' first message
    hop = net.hop(a, b)
    calls = []

    def profiler(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        net.transfer(a, b, 2144, 1e-6, 3e-6)
        hop.send(2144, 1e-6, 3e-6)
    finally:
        sys.setprofile(None)
    assert calls == ["transfer", "send", "send"]
