"""Resilience-layer tests: physical failure timing, leg deadlines, retries."""

import pytest

from repro.net import (
    Endpoint,
    IPOIB,
    LinkImpairment,
    Network,
    NetworkError,
    Node,
    RpcUnavailable,
)
from repro.net import rpc
from repro.net.rpc import TimedLeg
from repro.sim import Simulator
from repro.sim.process import Join, departure
from repro.sim.rand import RandomStreams
from repro.util import USEC, Counter


def make_net(nodes=2):
    sim = Simulator()
    net = Network(sim, IPOIB)
    ns = [Node(sim, f"n{i}") for i in range(nodes)]
    for n in ns:
        net.attach(n)
    return sim, net, ns


def make_pair():
    sim = Simulator()
    net = Network(sim, IPOIB)
    client, server = Node(sim, "client"), Node(sim, "server")
    cep, sep = Endpoint(net, client), Endpoint(net, server)
    return sim, net, client, server, cep, sep


# --------------------------------------------------------------------------- #
# Fabric: failure timing is physical
# --------------------------------------------------------------------------- #
def test_dead_destination_error_charges_the_one_way_trip():
    """The sender pays CPU + NIC + wire before learning the peer is
    dead — failure cannot be detected faster than the message travels."""
    sim, net, (a, b) = make_net()
    b.fail()
    seen = []

    def proc():
        try:
            yield net.transfer(a, b, 100)
        except NetworkError as e:
            seen.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    (t, msg), = seen
    assert "down" in msg
    # At least the wire latency; in the same ballpark as a healthy
    # one-way traversal (bounded well below an RPC round trip).
    assert IPOIB.wire_latency <= t < 2 * IPOIB.wire_latency + 50 * USEC
    assert net.stats.get("undeliverable") == 1


def test_dead_source_raises_synchronously():
    sim, net, (a, b) = make_net()
    a.fail()
    with pytest.raises(NetworkError):
        net.transfer(a, b, 100)


def test_impairment_validation_and_restore():
    sim, net, (a, b) = make_net()
    with pytest.raises(ValueError):
        LinkImpairment(extra_latency=-1.0)
    with pytest.raises(ValueError):
        LinkImpairment(loss_prob=1.5)
    with pytest.raises(ValueError):
        net.degrade(b.name, loss_prob=0.5)  # no loss_rng wired
    net.degrade(b.name, extra_latency=1e-3)
    assert net.impairment(b.name).extra_latency == 1e-3
    net.restore(b.name)
    assert net.impairment(b.name) is None


def test_message_loss_surfaces_as_network_error_after_the_trip():
    sim, net, (a, b) = make_net()
    net.loss_rng = RandomStreams(1).stream("net.loss")
    net.degrade(b.name, loss_prob=1.0)
    seen = []

    def proc():
        try:
            yield net.transfer(a, b, 100)
        except NetworkError as e:
            seen.append((sim.now, str(e)))

    sim.process(proc())
    sim.run()
    (t, msg), = seen
    assert "lost" in msg
    assert t >= IPOIB.wire_latency
    assert net.stats.get("lost") == 1


def test_loss_draws_are_seed_deterministic():
    def outcomes(seed):
        sim, net, (a, b) = make_net()
        net.loss_rng = RandomStreams(seed).stream("net.loss")
        net.degrade(b.name, loss_prob=0.5)
        results = []

        def proc():
            for _ in range(20):
                try:
                    yield net.transfer(a, b, 64)
                    results.append(1)
                except NetworkError:
                    results.append(0)

        sim.process(proc())
        sim.run()
        return results

    assert outcomes(5) == outcomes(5)
    assert outcomes(5) != outcomes(6)


# --------------------------------------------------------------------------- #
# RPC: a leg's deadline, and retries
# --------------------------------------------------------------------------- #
def leg_call(sim, cep, dst, service, timeout, errors, recv_cpu=0.0):
    """One :class:`TimedLeg` with *timeout* whose request costs *dst*
    *recv_cpu* on arrival, joined: its reply, or None when it failed or
    missed its deadline."""
    join = Join(sim, 1)
    TimedLeg(cep.conn(dst, service), None, 0, recv_cpu, join, 0, "leg", sim.active_process,
             errors, timeout=timeout)
    (reply,) = yield join
    return reply


def _deadline_run(register, timeout, recv_cpu=0.0):
    """Run one leg with *timeout*, costing *recv_cpu* on arrival,
    against the service *register* sets up; returns (landing instant,
    reply, errors, endpoint stats, when the handler ran, messages
    sent)."""
    sim, net, client, server, cep, sep = make_pair()
    ran = []
    register(sep, lambda: ran.append(sim.now))
    seen, errors = [], Counter()

    def proc():
        reply = yield from leg_call(sim, cep, server, "svc", timeout, errors, recv_cpu)
        seen.append((sim.now, reply))

    sim.process(proc())
    sim.run()
    ((when, reply),) = seen
    return when, reply, errors.as_dict(), cep.stats.as_dict(), ran, net.stats["messages"]


def _slow_request(sep, note):
    def handler(call):
        note()
        return "late", 16

    sep.register("svc", handler)


def test_slow_call_times_out_at_the_deadline():
    """The request cannot arrive by the deadline: the leg lands None at
    it with one ``timeouts``, and the request still runs on the server
    (at-least-once) and its response is still sent."""
    when, reply, errors, stats, ran, messages = _deadline_run(_slow_request, 0.002, 0.05)
    assert (when, reply) == (pytest.approx(0.002), None)
    assert stats["timeouts"] == 1 and errors == {"errors": 1}
    assert len(ran) == 1 and ran[0] > 0.05 and messages == 2
    assert "errors" not in stats


def test_a_response_that_misses_the_deadline_times_out_at_it():
    """The request arrives in time and the handler runs, but its reply
    copy holds the response past the deadline."""
    def register(sep, note):
        def handler(call):
            note()
            call.reply_cpu = 0.05
            return "late", 16

        sep.register("svc", handler)

    when, reply, errors, stats, ran, messages = _deadline_run(register, 0.002)
    assert (when, reply) == (pytest.approx(0.002), None)
    assert ran[0] < 0.002 and messages == 2
    assert stats["timeouts"] == 1 and errors == {"errors": 1}


def test_fast_call_with_deadline_succeeds():
    def register(sep, note):
        def handler(call):
            note()
            return "fast", 16

        sep.register("svc", handler)

    when, reply, errors, stats, ran, messages = _deadline_run(register, 0.01, 5 * USEC)
    assert reply == "fast" and ran[0] < when < 0.01
    assert "timeouts" not in stats and errors == {}


def test_a_failure_before_the_deadline_is_a_failure_not_a_timeout():
    def register(sep, note):
        sep.register("svc", lambda call: ("x", 16))
        sep.node.fail()

    when, reply, errors, stats, ran, messages = _deadline_run(register, 0.01)
    assert reply is None and when < 0.01 and ran == []
    assert errors == {"errors": 1} and stats["errors"] == 1
    assert "timeouts" not in stats


def _jitter(seed=9):
    return RandomStreams(seed).stream("rpc.jitter")


def test_retry_rides_through_a_server_flap():
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.conn.dst.cpu.run(5 * USEC)
        return "ok", 16

    sep.register("echo", echo)
    server.fail()

    def revive():
        yield sim.timeout(0.003)
        server.recover()

    sim.process(revive())
    got = []

    def proc():
        reply = yield from cep.call_retry(server, "echo", jitter=_jitter())
        got.append((sim.now, reply))

    sim.process(proc())
    sim.run()
    assert got and got[0][1] == "ok"
    assert got[0][0] > 0.003  # could not finish before the flap ended
    assert cep.stats.get("retries") >= 1


def test_retry_budget_exhaustion_reraises():
    sim, net, client, server, cep, sep = make_pair()
    sep.register("echo", lambda call: iter(()))
    server.fail()
    seen = []

    def proc():
        try:
            yield from cep.call_retry(server, "echo", jitter=_jitter())
        except RpcUnavailable:
            seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert len(seen) == 1
    assert cep.stats.get("retries") == rpc.SERVER_RETRIES == 10


def _old_backoff(attempt, rng, backoff=2e-4, backoff_factor=2.0, max_backoff=5e-3, jitter=0.1):
    """The sleep before retry *attempt* as the brick retry policy object
    computed it before the shape became module constants: its formula,
    copied as it was, with the values the testbed built it with."""
    delay = backoff * (backoff_factor ** attempt)
    if delay > max_backoff:
        delay = max_backoff
    if jitter > 0.0:
        delay *= 1.0 + jitter * float(rng.random())
    return delay


def test_backoff_schedule_and_jitter():
    """Every sleep between retries is the old policy's delay, to the
    bit, on the same seeded ``rpc.jitter`` draws in the same order:
    ``backoff * factor**attempt``, capped, then stretched by the draw."""
    sim, net, client, server, cep, sep = make_pair()
    sep.register("echo", lambda call: ("x", 16))
    server.fail()
    wakes = []
    at = sim.at

    def recording_at(when):
        wakes.append((departure(sim), when))
        return at(when)

    sim.at = recording_at

    def proc():
        with pytest.raises(RpcUnavailable):
            yield from cep.call_retry(server, "echo", jitter=_jitter(9))

    sim.process(proc())
    sim.run()
    reference = _jitter(9)
    assert len(wakes) == rpc.SERVER_RETRIES
    assert [when for _, when in wakes] == [
        t + _old_backoff(i, reference) for i, (t, _) in enumerate(wakes)
    ]
    sleeps = [when - t for t, when in wakes]
    # The cap holds from the sixth retry on; every draw stretched its sleep.
    assert all(2e-4 * 2**i < d <= 2e-4 * 2**i * 1.1 for i, d in enumerate(sleeps[:5]))
    assert all(5e-3 < d <= 5.5e-3 for d in sleeps[5:])


def test_no_timeout_no_policy_is_the_historical_path():
    """Without a jitter stream (a testbed without resilience)
    ``call_retry`` is the call itself: the same generator code, the same
    round trip, no retry."""
    sim, net, client, server, cep, sep = make_pair()

    def echo(call):
        yield call.conn.dst.cpu.run(5 * USEC)
        return "x", 16

    sep.register("echo", echo)
    t = []

    def proc():
        r1 = yield from cep.call(server, "echo")
        t.append(sim.now)
        r2 = yield from cep.call_retry(server, "echo")
        t.append(sim.now)
        assert r1 == r2 == "x"

    sim.process(proc())
    sim.run()
    assert t[1] - t[0] == pytest.approx(t[0])  # identical round-trip cost
    assert cep.call_retry(server, "echo").gi_code is cep.call(server, "echo").gi_code
