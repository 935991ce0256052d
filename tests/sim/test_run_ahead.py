"""A runner ahead of the clock: ``ready`` gates what it sends, nothing else.

A process sets ``ready`` when it books work it need not sleep on (the
FUSE crossing, ``GlusterClient._crossing``).  The rule under test: the
sender-CPU visit of every message the runner — or a strand or process
it creates — sends arrives at ``max(now, ready)``, so a message sent
ahead is booked exactly as the same message sent after sleeping until
``ready``; a span opened ahead starts at ``ready``; and an op that
sends nothing still ends at ``ready``, for the entry the sleep cost.
"""

import pytest

from repro.gluster.client import GlusterClient
from repro.gluster.costs import FUSE_OP_CPU
from repro.net import IPOIB, Network, NetworkError, Node
from repro.net import rpc
from repro.net.rpc import Endpoint, TimedLeg
from repro.obs.trace import SimTracer
from repro.sim import Simulator
from repro.sim.process import Join
from repro.sim.rand import RandomStreams
from repro.util import Counter

READY = 25e-6
SIZE = 2144


def _fabric(cores=8):
    sim = Simulator()
    net = Network(sim, IPOIB)
    nodes = [Node(sim, f"n{i}", cores=cores) for i in range(3)]
    for node in nodes:
        net.attach(node)
    return sim, net, nodes


def _state(net, nodes):
    out = []
    for node in nodes:
        nic = net.nic(node)
        for station in (node.cpu, nic.tx, nic.rx):
            w = station.wait_stats
            out.append((
                station.name, sorted(station._free),
                station.busy_time, station.jobs, (w.n, w.total, w.max),
            ))
    return out


def _twin(body, ahead, cores=8, busy_until=0.0):
    """Run ``body(sim, net, nodes)`` in a process that is ahead of the
    clock until READY (*ahead*) or that sleeps until READY first.
    Returns what the body recorded and the fabric's state."""
    sim, net, nodes = _fabric(cores)
    if busy_until:
        # The sender's CPU is booked past READY already.
        for _ in range(cores):
            nodes[0].cpu.reserve(busy_until)
    log = []

    def proc():
        if ahead:
            sim.active_process.ready = READY
        else:
            yield READY
        yield from body(sim, net, nodes, log)

    sim.process(proc())
    sim.run()
    return log, _state(net, nodes), sim._seq


@pytest.mark.parametrize("cores,busy_until", [(8, 0.0), (1, 0.0), (1, 40e-6), (8, 40e-6)])
def test_a_message_sent_ahead_departs_at_ready(cores, busy_until):
    def body(sim, net, nodes, log):
        for size in (SIZE, 0, 1 << 16):
            when = net.transfer(nodes[0], nodes[1], size)
            yield when
            log.append((when, sim.now))

    ahead = _twin(body, True, cores, busy_until)
    waited = _twin(body, False, cores, busy_until)
    assert ahead[:2] == waited[:2]
    # The waited twin paid one entry for its sleep.
    assert ahead[2] == waited[2] - 1


def test_an_undeliverable_message_sent_ahead_fails_when_the_waited_one_does():
    def body(sim, net, nodes, log):
        nodes[1].fail()
        try:
            yield net.transfer(nodes[0], nodes[1], SIZE)
        except NetworkError:
            log.append(sim.now)

    ahead = _twin(body, True)
    waited = _twin(body, False)
    assert ahead[:2] == waited[:2]
    assert ahead[0][0] > READY


def test_strands_and_child_processes_inherit_ready():
    def body(sim, net, nodes, log):
        def leg(dst):
            log.append(("strand ready", sim.active_process.ready > sim.now))
            yield net.transfer(nodes[0], nodes[dst], SIZE)
            log.append(("strand", dst, sim.now))

        def child():
            log.append(("child ready", sim.active_process.ready > sim.now))
            yield net.transfer(nodes[0], nodes[2], 1 << 16)
            log.append(("child", sim.now))

        proc = sim.process(child())
        yield sim.gather([leg(1), leg(2)])
        yield proc
        log.append(("joined", sim.now))

    ahead, ahead_state, _ = _twin(body, True)
    waited, waited_state, _ = _twin(body, False)
    assert ahead_state == waited_state
    # Same instants; only the "was it ahead" flags differ.
    assert [r for r in ahead if "ready" not in r[0]] == [r for r in waited if "ready" not in r[0]]
    assert [r[1] for r in ahead if "ready" in r[0]] == [True, True, True]


@pytest.mark.parametrize("case", ["deadline", "backoff"])
def test_a_deadline_and_a_backoff_run_from_ready(case, monkeypatch):
    """A leg's deadline and a retry's backoff start when the request may
    leave, not at op start.  *deadline*: the leg's ~101 us round trip
    fits a 110 us budget counted from READY, not one counted from 0.
    *backoff*: the first attempt fails at once (no service yet); the one
    retry, 10-11 us later, finds the service that appears at READY + 5 us."""
    monkeypatch.setattr(rpc, "SERVER_RETRIES", 1)
    monkeypatch.setattr(rpc, "RETRY_BACKOFF", 10e-6)

    def body(sim, net, nodes, log):
        caller, callee = Endpoint(net, nodes[0]), Endpoint(net, nodes[1])

        def serve(_=None):
            callee.register("echo", lambda call: (call.args, SIZE))

        if case == "deadline":
            serve()
            join = Join(sim, 1)
            TimedLeg(caller.conn(nodes[1], "echo"), "hi", SIZE, 0.0, join, 0, "leg",
                     sim.active_process, Counter(), timeout=110e-6)
            (reply,) = yield join
        else:
            sim.at(READY + 5e-6).callbacks.append(serve)
            jitter = RandomStreams(1).stream("rpc.jitter")
            reply = yield from caller.call_retry(nodes[1], "echo", "hi", SIZE, jitter)
        log.append(reply)
        log.append(sim.now)
        log.append(dict(caller.stats.values))

    ahead = _twin(body, True)
    waited = _twin(body, False)
    assert ahead[:2] == waited[:2]
    reply, _, stats = ahead[0]
    assert reply == "hi" and "timeouts" not in stats
    assert stats.get("retries", 0) == (1 if case == "backoff" else 0)


class _Stack:
    """A client stack whose every fop is *body*."""

    def __init__(self, body):
        self.body = body

    def stat(self, path):
        return self.body(path)


def _client_op(body, cores=8):
    sim = Simulator()
    node = Node(sim, "client", cores=cores)
    client = GlusterClient(sim, node, _Stack(body))
    log = {}

    def proc():
        try:
            log["result"] = yield from client.stat("/f")
        except ValueError as exc:
            log["raised"] = str(exc)
        log["ended"] = sim.now

    before = sim._seq
    sim.process(proc())
    sim.run()
    return log, sim._seq - before, node


def test_an_op_that_sends_nothing_settles_at_ready_for_the_waits_entry():
    def hit(path):
        return "hit"
        yield  # pragma: no cover - makes this a generator

    log, entries, node = _client_op(hit)
    assert log == {"result": "hit", "ended": FUSE_OP_CPU}
    # Initialize, the wake at `ready`, the completion: what a crossing
    # slept on costs, its wake now coming at the end of the op.
    assert entries == 3
    assert node.cpu.busy_time == FUSE_OP_CPU and node.cpu.jobs == 1


@pytest.mark.parametrize("wait", [0.0, 5e-6])
def test_an_exception_before_the_first_send_ends_the_op_at_ready(wait):
    def fails(path):
        if wait:
            yield wait
        raise ValueError("no such file")

    log, entries, _ = _client_op(fails)
    assert log == {"raised": "no such file", "ended": FUSE_OP_CPU}
    assert entries == (4 if wait else 3)


def test_an_op_that_outlives_its_crossing_pays_no_extra_wait():
    def slow(path):
        yield 3 * FUSE_OP_CPU
        return "late"

    log, entries, _ = _client_op(slow)
    assert log == {"result": "late", "ended": 3 * FUSE_OP_CPU}
    # Initialize, the body's own wake, the completion.
    assert entries == 3


def test_concurrent_ops_are_each_gated_by_their_own_crossing_only():
    """A's second message leaves when A sends it, though B — on the same
    node, created first — is ahead of the clock until much later.  (B
    sends once A is done: booked at once, its visit would hold the
    node's tx NIC until 1.0 — the booking-order hole of ROADMAP item 1.)"""
    sim, net, nodes = _fabric()
    log = {}

    def a():
        sim.active_process.ready = READY
        yield net.transfer(nodes[0], nodes[1], SIZE)
        log["a_first"] = sim.now
        log["a_second"] = net.transfer(nodes[0], nodes[1], SIZE)
        yield log["a_second"]

    def b():
        sim.active_process.ready = 1.0
        yield 0.5
        log["b_ready"] = sim.active_process.ready
        log["b"] = net.transfer(nodes[0], nodes[2], SIZE)
        yield log["b"]

    sim.process(b())
    sim.process(a())
    sim.run()

    # A alone, sleeping until READY instead of running ahead.
    solo_sim, solo_net, solo_nodes = _fabric()
    solo = {}

    def a_solo():
        yield READY
        yield solo_net.transfer(solo_nodes[0], solo_nodes[1], SIZE)
        solo["a_first"] = solo_sim.now
        solo["a_second"] = solo_net.transfer(solo_nodes[0], solo_nodes[1], SIZE)
        yield solo["a_second"]

    solo_sim.process(a_solo())
    solo_sim.run()
    assert (log["a_first"], log["a_second"]) == (solo["a_first"], solo["a_second"])
    assert log["b_ready"] == 1.0 and log["b"] > 1.0


def test_nothing_booked_after_the_clock_passes_ready_changes():
    def body(sim, net, nodes, log):
        yield 2 * READY
        for size in (SIZE, 1 << 16):
            when = net.transfer(nodes[0], nodes[1], size)
            now = sim.now
            log.append((when, now))
            yield when

    def stale(sim, net, nodes, log):
        sim.active_process.ready = READY
        yield from body(sim, net, nodes, log)

    def fresh(sim, net, nodes, log):
        yield from body(sim, net, nodes, log)

    a = _twin(stale, False)
    b = _twin(fresh, False)
    assert a == b
    # A delay from now, as ever.
    for when, now in a[0]:
        assert when >= now


def test_spans_opened_ahead_start_at_ready_and_the_crossing_is_marked():
    sim = Simulator()
    node = Node(sim, "client")
    tracer = SimTracer(sim)

    def body(path):
        with tracer.span("network", "net.req"):
            yield 2 * FUSE_OP_CPU
        return "ok"

    client = GlusterClient(sim, node, _Stack(body), tracer=tracer)
    sim.process(client.stat("/f"))
    sim.run()
    spans = {s.name: (s.tier, s.start, s.end) for s in tracer.spans}
    assert spans == {
        "client.fuse": ("client", 0.0, FUSE_OP_CPU),
        "net.req": ("network", FUSE_OP_CPU, 2 * FUSE_OP_CPU),
        "client.stat": ("client", 0.0, 2 * FUSE_OP_CPU),
    }
    # The mark is timeline only: the crossing is the root's own time.
    assert tracer.tier_totals() == pytest.approx(
        {"client": FUSE_OP_CPU, "network": FUSE_OP_CPU}
    )
    assert tracer.tier_stats["client"].n == 1
