"""An MCD round trip is two scheduler entries: the command's CPU rides
the request's receive visit and the reply copy the response's send
visit (DESIGN §7, "An MCD round trip is two entries").

The reference below is the round trip booked the way it was before the
fold — request ``transfer``, ``cpu.run(command)``, handler,
``cpu.run(copy)``, response ``transfer`` — driven on a twin testbed.
Random command sequences run through both, one round trip at a time,
and every reply, engine item and counter must be equal, the MCD CPU's
busy time equal to 1e-12 relative, each completion instant equal to
within float rounding, and the folded trip must book 2 MCD CPU jobs
and 2 scheduler entries where the chain books 3 or 4.  A GlusterFS RPC,
whose handler still yields its own stations, must be bit-identical to
the unfolded call.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TestbedConfig, build_gluster_testbed
from repro.gluster.server import SERVICE as GLUSTER
from repro.gluster.server import request_size as gluster_request_size
from repro.memcached import MemcachedDaemon
from repro.memcached.daemon import COPY_PER_BYTE, SERVICE, command_cpu, request_size
from repro.net import HEADER_SIZE, IPOIB, Endpoint, Network, Node, RpcCall, RpcUnavailable
from repro.obs.trace import SimTracer
from repro.sim import RandomStreams, Simulator
from repro.util import KiB, MiB

KEYS = [f"k{i}" for i in range(6)]


def reference_call(ep, daemon, op, payload):
    """The MCD round trip as its own bookings: request, command CPU,
    handler, copy CPU, response."""
    net, node, dst = ep.net, ep.node, daemon.node
    req_size = request_size(op, payload)
    yield net.transfer(node, dst, HEADER_SIZE + req_size)
    yield dst.cpu.run(command_cpu(op, payload))
    reply, resp_size = daemon._serve(RpcCall(node, dst, SERVICE, (op, payload), req_size))
    if resp_size and op in ("get_multi", "scan"):
        yield dst.cpu.run(COPY_PER_BYTE * resp_size)
    yield net.transfer(dst, node, HEADER_SIZE + resp_size)
    return reply


def folded_call(ep, daemon, op, payload):
    return ep.call(daemon.node, SERVICE, (op, payload), request_size(op, payload))


def _mcd_pair(cores, tracer=None):
    sim = Simulator()
    net = Network(sim, IPOIB)
    ep = Endpoint(net, Node(sim, "client"))
    kw = {} if tracer is None else {"tracer": tracer(sim)}
    daemon = MemcachedDaemon(sim, net, Node(sim, "mcd", cores=cores), 4 * MiB, **kw)
    return sim, ep, daemon


def _drive(sim, ep, daemon, calls, ops):
    """Run *ops* one round trip at a time; per op: (reply, completion
    instant, MCD CPU jobs booked, scheduler entries minted)."""
    out = []

    def proc():
        for op, payload, advance in ops:
            if advance:
                yield sim.timeout(advance)
            jobs, seq = daemon.node.cpu.jobs, sim._seq
            reply = yield from calls(ep, daemon, op, payload)
            out.append((reply, sim.now, daemon.node.cpu.jobs - jobs, sim._seq - seq))

    sim.process(proc())
    sim.run()
    return out


def _close(a, b):
    """Equal, with floats (clock-derived TTLs) equal to float rounding."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_close(a[k], b[k]) for k in a)
    return a == b


def _engine_state(daemon):
    eng = daemon.engine
    items = [
        (k, it.value, it.nbytes, it.flags, it.exptime, it.cas, it.seq, it.slab.index)
        for k, it in eng._items.items()
    ]
    lru = {idx: list(order) for idx, order in eng._lru.items()}
    return items, lru, eng.stats.as_dict()


key = st.sampled_from(KEYS)
nbytes = st.sampled_from((1, 100, 2 * KiB, 16 * KiB))
item = st.tuples(key, st.integers(0, 999), nbytes, st.sampled_from((0, 5)), st.just(0))
command = st.one_of(
    st.tuples(st.just("get_multi"), st.lists(key, min_size=1, max_size=6, unique=True)),
    st.tuples(st.just("set"), item),
    st.tuples(st.just("set_multi"), st.lists(item, min_size=1, max_size=5)),
    st.tuples(st.just("delete_multi"), st.lists(key, min_size=1, max_size=4, unique=True)),
    st.tuples(st.just("incr"), st.tuples(key, st.integers(1, 10**6))),
    st.tuples(st.just("touch"), st.tuples(key, st.sampled_from((0.0, 30.0)))),
    st.tuples(st.just("scan"), st.tuples(st.just(0), st.integers(1, 8), st.booleans())),
)
commands = st.lists(
    st.tuples(command, st.sampled_from((0.0, 0.0, 1e-6, 3e-4))), min_size=1, max_size=25
)

#: Every key stored before the sequence starts, so gets hit and miss.
SEED = [("set_multi", [(k, i, 2 * KiB, 0, 0) for i, k in enumerate(KEYS[:3])], 0.0)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((1, 8)), commands)
def test_folded_round_trip_matches_the_four_booking_chain(cores, sequence):
    ops = SEED + [(op, payload, advance) for (op, payload), advance in sequence]
    sim_a, ep_a, mcd_a = _mcd_pair(cores)
    sim_b, ep_b, mcd_b = _mcd_pair(cores)
    folded = _drive(sim_a, ep_a, mcd_a, folded_call, ops)
    chained = _drive(sim_b, ep_b, mcd_b, reference_call, ops)

    assert len(folded) == len(chained) == len(ops)
    for (op, payload, _), got, want in zip(ops, folded, chained):
        reply, when, jobs, entries = got
        want_reply, want_when, want_jobs, want_entries = want
        assert _close(reply, want_reply), (op, payload)
        assert math.isclose(when, want_when, rel_tol=1e-12), (op, when, want_when)
        assert (jobs, entries) == (2, 2)
        copied = op in ("get_multi", "scan") and bool(reply[1] if op == "scan" else reply)
        assert want_jobs == want_entries == (4 if copied else 3)
    assert _close(_engine_state(mcd_a), _engine_state(mcd_b))
    cpu_a, cpu_b = mcd_a.node.cpu, mcd_b.node.cpu
    assert math.isclose(cpu_a.busy_time, cpu_b.busy_time, rel_tol=1e-12)
    assert cpu_a.jobs == 2 * len(ops)
    assert ep_a.stats.as_dict() == {"calls": len(ops)}


@pytest.mark.parametrize("cores", (1, 8))
@pytest.mark.parametrize(
    "keys, hits",
    [(KEYS[:3], 3), (KEYS[3:], 0), (KEYS[1:5], 2)],
    ids=["all_hit", "all_miss", "mixed"],
)
def test_get_multi_hit_miss_and_mixed_fold_to_two_jobs(cores, keys, hits):
    ops = SEED + [("get_multi", keys, 0.0)]
    sim_a, ep_a, mcd_a = _mcd_pair(cores)
    sim_b, ep_b, mcd_b = _mcd_pair(cores)
    (*_, (reply, when, jobs, entries)) = _drive(sim_a, ep_a, mcd_a, folded_call, ops)
    (*_, (want, want_when, want_jobs, want_entries)) = _drive(
        sim_b, ep_b, mcd_b, reference_call, ops
    )
    assert reply == want and len(reply) == hits
    assert math.isclose(when, want_when, rel_tol=1e-12)
    assert (jobs, entries) == (2, 2)
    assert want_jobs == want_entries == (4 if hits else 3)
    assert mcd_a.engine.stats.as_dict() == mcd_b.engine.stats.as_dict()
    assert math.isclose(mcd_a.node.cpu.busy_time, mcd_b.node.cpu.busy_time, rel_tol=1e-12)


def reference_gluster_call(ep, server, fop, args):
    """The RPC body before the fold: request, handler, response."""
    req_size = gluster_request_size(fop, args)
    yield ep.net.transfer(ep.node, server.node, HEADER_SIZE + req_size)
    reply, resp_size = yield from server._handle(
        RpcCall(ep.node, server.node, GLUSTER, (fop, args), req_size)
    )
    yield ep.net.transfer(server.node, ep.node, HEADER_SIZE + int(resp_size))
    return reply


def folded_gluster_call(ep, server, fop, args):
    return ep.call(server.node, GLUSTER, (fop, args), gluster_request_size(fop, args))


def _gluster_run(calls, fops):
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=0))
    sim, ep, server = tb.sim, tb.client_endpoints[0], tb.server
    out = []

    def proc():
        yield from calls(ep, server, "create", ("/f",))
        for fop, args in fops:
            seq = sim._seq
            reply = yield from calls(ep, server, fop, args)
            out.append((repr(reply), sim.now, sim._seq - seq))

    sim.process(proc())
    sim.run()
    stations = [server.io_pool]
    for node in (ep.node, server.node):
        nic = tb.net.nic(node)
        stations += [node.cpu, nic.tx, nic.rx]
    state = [
        (s.name, sorted(s._free), s._latest_free, s.busy_time, s.jobs) for s in stations
    ]
    return out, state, server.stats.as_dict()


fop = st.one_of(
    st.tuples(st.just("stat"), st.just(("/f",))),
    st.tuples(st.just("lookup"), st.just(("/f",))),
    st.tuples(
        st.just("write"),
        st.tuples(st.just("/f"), st.integers(0, 64).map(lambda b: b * KiB),
                  st.sampled_from((1, 4 * KiB, 64 * KiB)), st.none()),
    ),
    st.tuples(
        st.just("read"),
        st.tuples(st.just("/f"), st.integers(0, 64).map(lambda b: b * KiB),
                  st.sampled_from((1, 4 * KiB, 64 * KiB))),
    ),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(fop, min_size=1, max_size=12))
def test_gluster_rpc_is_bit_identical_to_the_unfolded_call(fops):
    assert _gluster_run(folded_gluster_call, fops) == _gluster_run(
        reference_gluster_call, fops
    )


# --------------------------------------------------------------------------- #
# failure paths
# --------------------------------------------------------------------------- #
def _call_outcome(sim, ep, daemon, op, payload):
    caught = []

    def proc():
        try:
            caught.append((yield from folded_call(ep, daemon, op, payload)))
        except RpcUnavailable as e:
            caught.append(str(e))

    sim.process(proc())
    return caught


def test_a_node_killed_during_the_folded_receive_visit_never_runs_the_handler():
    sim, ep, daemon = _mcd_pair(1)
    keys = [f"key{i}" for i in range(200)]  # 600 us of lookup CPU
    caught = _call_outcome(sim, ep, daemon, "get_multi", keys)

    def killer():
        yield sim.timeout(300e-6)
        daemon.kill()

    sim.process(killer())
    sim.run()
    assert caught == ["mcd died during call"]
    # The lookup never happened: no command reached the engine.
    assert daemon.engine.stats.get("cmd_get", 0) == 0
    assert ep.stats.as_dict() == {"calls": 1, "errors": 1}


def test_a_request_that_never_arrives_charges_no_arrival_cpu():
    sim, ep, daemon = _mcd_pair(1)
    daemon.kill()
    caught = _call_outcome(sim, ep, daemon, "get_multi", KEYS)
    sim.run()
    assert caught == ["destination mcd is down"]
    assert (daemon.node.cpu.jobs, daemon.node.cpu.busy_time) == (0, 0.0)

    sim, ep, daemon = _mcd_pair(1)
    ep.net.loss_rng = RandomStreams(1).stream("loss")
    ep.net.degrade(daemon.node, loss_prob=1.0)
    caught = _call_outcome(sim, ep, daemon, "get_multi", KEYS)
    sim.run()
    assert caught == ["message client -> mcd lost"]
    assert (daemon.node.cpu.jobs, daemon.node.cpu.busy_time) == (0, 0.0)


def test_a_reply_to_a_killed_client_books_the_copy_on_the_mcd_cpu():
    sim, ep, daemon = _mcd_pair(1)
    p = IPOIB
    value = [("big", 1, 512 * KiB, 0, 0)]
    sim.run(until=sim.process(folded_call(ep, daemon, "set_multi", value)))
    cpu = daemon.node.cpu
    busy, jobs = cpu.busy_time, cpu.jobs
    req_size = HEADER_SIZE + request_size("get_multi", ["big"])
    caught = _call_outcome(sim, ep, daemon, "get_multi", ["big"])

    def killer():
        # The request was booked end to end when it was sent; the client
        # is gone by the time the reply leaves.
        yield sim.timeout(1e-9)
        ep.node.fail()

    sim.process(killer())
    sim.run()
    assert caught == ["destination client is down"]
    assert daemon.engine.stats.get("get_hits") == 1
    resp_bytes = 512 * KiB + 40 + len("big")
    assert cpu.jobs == jobs + 2
    want = (
        (p.cpu_recv + p.cpu_per_byte * req_size + command_cpu("get_multi", ["big"]))
        + (p.cpu_send + p.cpu_per_byte * (HEADER_SIZE + resp_bytes) + COPY_PER_BYTE * resp_bytes)
    )
    assert math.isclose(cpu.busy_time - busy, want, rel_tol=1e-9)
    assert COPY_PER_BYTE * resp_bytes > 100e-6  # the copy is most of it


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
def test_traced_call_books_the_command_cpu_to_the_mcd_tier():
    """The folded command CPU is a closed ``mcd`` interval ending when
    the request's receive visit does, nested in the request's network
    span — so the network tier does not absorb it, and tracing changes
    no timestamp."""
    keys = [f"key{i}" for i in range(10)]
    ops = [("get_multi", keys, 0.0)]
    plain = _drive(*_mcd_pair(1), folded_call, ops)
    sim, ep, daemon = _mcd_pair(1, tracer=SimTracer)
    ep.tracer = daemon.tracer
    traced = _drive(sim, ep, daemon, folded_call, ops)
    assert traced == plain
    spans = {s.name: s for s in daemon.tracer.spans}
    mcd, req = spans["mcd.get_multi"], spans["net.req.memcached"]
    assert mcd.tier == "mcd" and mcd.end == req.end
    assert math.isclose(mcd.duration, command_cpu("get_multi", keys), rel_tol=1e-9)
    assert req.child_time == mcd.duration
    assert math.isclose(req.exclusive + mcd.duration, req.duration, rel_tol=1e-12)
