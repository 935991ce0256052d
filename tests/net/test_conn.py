"""A connection is an object: one :class:`~repro.net.rpc.Conn` per
(endpoint, destination, service), resolved once and reused by every leg
and every :meth:`Endpoint.call`, and a daemon that joins the bank gets
its own on first use.  A message over a connection's bound hop fails or
is delayed exactly as ``Network.transfer`` books it: against a dead
node, a degraded link and a lossy one, checked on twin fabrics and
against the four chained reservations of ``test_one_pass_hop.py``.
"""

import pytest

from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached.daemon import SERVICE
from repro.net import IPOIB, Conn, Endpoint, Network, NetworkError, Node
from repro.sim import RandomStreams, Simulator
from repro.util import MiB
from tests.net.test_one_pass_hop import reference_delivery_time


def _bank(n):
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), 4 * MiB) for i in range(n)]
    mc = MemcacheClient(Endpoint(net, Node(sim, "client")), daemons)
    return sim, net, daemons, mc


def _run(sim, gen):
    done = sim.process(gen)
    sim.run()
    return done.value


def test_one_conn_per_daemon_reused_by_every_leg_and_call():
    sim, _net, daemons, mc = _bank(2)
    keys = [f"k{i}" for i in range(16)]
    _run(sim, mc.set_multi([(k, b"v", 1, 0, 0) for k in keys]))
    _run(sim, mc.get_multi(keys))
    conns = dict(mc._conns)
    assert sorted(conns) == [0, 1]
    for _ in range(3):
        _run(sim, mc.get_multi(keys))
        _run(sim, mc.get(keys[0]))
        _run(sim, mc.delete_multi(keys[:4]))
    ep = mc.endpoint
    # The client's table holds the endpoint's objects, one per daemon.
    assert mc._conns == conns
    assert len(ep._conns) == 2
    for idx, daemon in enumerate(daemons):
        conn = conns[idx]
        assert type(conn) is Conn
        assert ep.conn(daemon.node, SERVICE) is conn
        assert (conn.src, conn.dst, conn.service) == (ep.node, daemon.node, SERVICE)
        assert conn.handler == daemon._serve
        assert conn.out is ep.net.hop(ep.node, daemon.node)
        assert conn.back is ep.net.hop(daemon.node, ep.node)


def test_a_daemon_added_to_the_bank_gets_its_own_conn_on_first_use():
    sim, net, _daemons, mc = _bank(1)
    keys = [f"k{i}" for i in range(32)]
    _run(sim, mc.get_multi(keys))
    assert sorted(mc._conns) == [0]
    joined = MemcachedDaemon(sim, net, Node(sim, "mcd-new"), 4 * MiB)
    mc.add_server(joined)
    assert sorted(mc._conns) == [0]  # nothing resolved before it is used
    assert len(mc.endpoint._conns) == 1
    _run(sim, mc.get_multi(keys))
    assert sorted(mc._conns) == [0, 1]
    assert mc._conns[1].dst is joined.node
    assert mc._conns[1] is mc.endpoint.conn(joined.node, SERVICE)


def _twins(impair=None, loss=0.0):
    """Two identical fabrics of two nodes, impaired alike."""
    out = []
    for _ in range(2):
        sim = Simulator()
        net = Network(sim, IPOIB)
        net.loss_rng = RandomStreams(7).stream("net.loss")
        a, b = Node(sim, "a"), Node(sim, "b")
        net.attach(a)
        net.attach(b)
        if impair is not None:
            net.degrade(b, extra_latency=impair, loss_prob=loss)
        out.append((sim, net, a, b))
    return out


def _outcome(sim, due):
    """When the message lands, or when and how it fails."""
    if type(due) is float:
        return ("landed", due)
    seen = []

    def wait():
        try:
            yield due
        except NetworkError as e:
            seen.append(("failed", sim.now, str(e)))

    sim.process(wait())
    sim.run()
    return seen[0]


@pytest.mark.parametrize("case", ("dead", "degraded", "lossy"))
def test_a_conn_fails_or_delays_a_message_as_transfer_books_it(case):
    (sim_c, net_c, a_c, b_c), (sim_t, net_t, a_t, b_t) = _twins(
        impair=None if case == "dead" else 9e-6, loss=0.5 if case == "lossy" else 0.0
    )
    out = Endpoint(net_c, a_c).conn(b_c, "svc").out
    if case == "dead":
        b_c.fail()
        b_t.fail()
    got, want = [], []
    for size in (0, 96, 2144, 16480, 96, 1 << 20):
        got.append(_outcome(sim_c, out.send(size)))
        want.append(_outcome(sim_t, net_t.transfer(a_t, b_t, size)))
    assert got == want
    assert net_c.stats.as_dict() == net_t.stats.as_dict()
    kinds = {o[0] for o in got}
    assert kinds == {"dead": {"failed"}, "degraded": {"landed"}, "lossy": {"landed", "failed"}}[case]
    if case == "degraded":
        # The one-pass reference: four chained reservations, extra wire included.
        (sim_r, net_r, a_r, b_r), _ = _twins(impair=9e-6)
        want_r = [reference_delivery_time(net_r, a_r, b_r, size)
                  for size in (0, 96, 2144, 16480, 96, 1 << 20)]
        assert [t for _, t in got] == want_r


def test_a_conn_to_a_killed_daemon_fails_its_call_and_recovers_with_it():
    sim, _net, daemons, mc = _bank(1)
    _run(sim, mc.set("k", b"v", 1))
    conn = mc.endpoint.conn(daemons[0].node, SERVICE)
    daemons[0].kill()
    assert _run(sim, mc.get("k")) is None
    assert mc.stats.get("errors") == 1
    daemons[0].restart()
    _run(sim, mc.set("k", b"w", 1))
    assert _run(sim, mc.get("k")).value == b"w"
    assert mc.endpoint._conns == {(daemons[0].node, SERVICE): conn}
