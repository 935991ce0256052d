"""Tests for the RPC layer."""

import pytest

from repro.net import Endpoint, IPOIB, Network, Node, RpcUnavailable
from repro.sim import FifoStation, Simulator
from repro.util import USEC


def make_pair():
    sim = Simulator()
    net = Network(sim, IPOIB)
    client = Node(sim, "client")
    server = Node(sim, "server")
    cep = Endpoint(net, client)
    sep = Endpoint(net, server)
    return sim, net, client, server, cep, sep


def test_basic_call_round_trip():
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.conn.dst.cpu.run(5 * USEC)
        return ("echo", call.args), 64

    sep.register("echo", echo)
    got = []

    def proc(sim, cep, server):
        reply = yield from cep.call(server, "echo", {"x": 1}, req_size=32)
        got.append((sim.now, reply))

    sim.process(proc(sim, cep, server))
    sim.run()
    assert got[0][1] == ("echo", {"x": 1})
    assert got[0][0] > 50 * USEC  # two wire crossings minimum


def test_unknown_service_raises():
    sim, net, client, server, cep, sep = make_pair()
    caught = []

    def proc(sim, cep, server):
        try:
            yield from cep.call(server, "nope")
        except RpcUnavailable as e:
            caught.append(str(e))

    sim.process(proc(sim, cep, server))
    sim.run()
    assert caught and "nope" in caught[0]


def test_call_to_dead_server_raises_unavailable():
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.conn.dst.cpu.run(1 * USEC)
        return None, 0

    sep.register("echo", echo)
    server.fail()
    caught = []

    def proc(sim, cep, server):
        try:
            yield from cep.call(server, "echo")
        except RpcUnavailable:
            caught.append(sim.now)

    sim.process(proc(sim, cep, server))
    sim.run()
    assert caught


def test_server_dying_mid_request_fails_every_call_in_flight():
    """Requests already on the wire when the destination dies each fail
    with RpcUnavailable, and each is booked as its own error."""
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.conn.dst.cpu.run(1 * USEC)
        return call.args, 0

    sep.register("echo", echo)
    outcomes = []

    def proc(k):
        try:
            outcomes.append((yield from cep.call(server, "echo", k, req_size=4096)))
        except RpcUnavailable as e:
            outcomes.append(str(e))

    def killer():
        yield sim.timeout(1e-9)
        server.fail()

    for k in range(4):
        sim.process(proc(k))
    sim.process(killer())
    sim.run()
    assert outcomes == ["server died during call"] * 4
    assert cep.stats.values["calls"] == 4
    assert cep.stats.values["errors"] == 4


def test_duplicate_registration_rejected():
    sim, net, client, server, cep, sep = make_pair()

    def h(call):
        yield call.conn.dst.cpu.run(1e-6)
        return None, 0

    sep.register("svc", h)
    with pytest.raises(ValueError):
        sep.register("svc", h)
    del sep.node.services["svc"]
    sep.register("svc", h)  # re-register once the service is gone is fine


def test_server_station_contention_shapes_latency():
    """Calls serialise on a 1-server station: mean completion grows
    linearly with the number of concurrent clients."""
    sim = Simulator()
    net = Network(sim, IPOIB)
    server = Node(sim, "server", cores=8)
    svc = FifoStation(sim, servers=1, name="svc")
    sep = Endpoint(net, server)
    service_time = 100 * USEC

    def handler(call):
        yield svc.run(service_time)
        return None, 0

    sep.register("work", handler)

    done = []

    def client_proc(sim, net, i):
        c = Node(sim, f"c{i}")
        ep = Endpoint(net, c)
        yield from ep.call(server, "work")
        done.append(sim.now)

    n = 16
    for i in range(n):
        sim.process(client_proc(sim, net, i))
    sim.run()
    # Last completion dominated by n * service_time serialisation.
    assert max(done) >= n * service_time
    assert max(done) < n * service_time * 2


def test_concurrent_calls_from_one_client_pipeline():
    sim, net, client, server, cep, sep = make_pair()

    def quick(call):
        yield call.conn.dst.cpu.run(1 * USEC)
        return call.args, 0

    sep.register("quick", quick)
    results = []

    def one(sim, cep, server, i):
        r = yield from cep.call(server, "quick", i)
        results.append(r)

    for i in range(10):
        sim.process(one(sim, cep, server, i))
    sim.run()
    assert sorted(results) == list(range(10))


def test_rpc_stats_counted():
    sim, net, client, server, cep, sep = make_pair()

    def h(call):
        yield call.conn.dst.cpu.run(1e-6)
        return None, 0

    sep.register("h", h)

    def proc(sim, cep, server):
        for _ in range(3):
            yield from cep.call(server, "h")

    sim.process(proc(sim, cep, server))
    sim.run()
    assert cep.stats.get("calls") == 3
