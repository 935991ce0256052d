"""A batch leg's reply lands on its join (DESIGN §7, "Landed legs"):
``get_multi``, ``set_multi`` and ``delete_multi`` over K MCDs cost
K + 1 scheduler entries, not 2K + 1.

The reference is the same client with every leg sleeping on its
response and then returning it (``_leg(..., land=False)``).  Random
batch sequences run through both on twin banks of 1-4 MCDs with 1- or
8-core nodes, one op at a time, and every reply, engine item, LRU
order, counter, station booking and completion instant must be equal —
exactly, since a landing is the float the response transfer booked.
Only the entry count differs.  Legs whose RPC fails keep their waits,
and a traced warm read attributes every tier exactly as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observability, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import KiB, MiB

KEYS = [f"k{i}" for i in range(12)]


_landing_leg = MemcacheClient._leg


def _waiting_leg(self, idx, op, payload, land=True):
    """The reference leg: sleeps on its response, then returns it."""
    return _landing_leg(self, idx, op, payload, land=False)


class WaitingClient(MemcacheClient):
    _leg = _waiting_leg


def _bank(n, cores, client_cls):
    sim = Simulator()
    net = Network(sim, IPOIB)
    ep = Endpoint(net, Node(sim, "client"))
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"m{i}", cores=cores), 4 * MiB)
        for i in range(n)
    ]
    return sim, client_cls(ep, daemons), daemons


def _owners(mc, op, arg):
    """The number of legs *op* sends: one per distinct primary."""
    keys = [a[0] for a in arg] if op == "set_multi" else arg
    return len({mc.owners(k)[0] for k in keys})


def _drive(sim, mc, ops):
    """Run *ops* one at a time; per op: (result, completion instant,
    scheduler entries minted, legs sent)."""
    out = []

    def proc():
        for op, arg, advance in ops:
            if advance:
                yield sim.timeout(advance)
            legs = _owners(mc, op, arg)
            seq = sim._seq
            result = yield from getattr(mc, op)(arg)
            out.append((result, sim.now, sim._seq - seq, legs))

    sim.process(proc())
    sim.run()
    return out


def _stations(mc, daemons):
    net = mc.endpoint.net
    nodes = [mc.endpoint.node, *(d.node for d in daemons)]
    stations = []
    for node in nodes:
        nic = net.nic(node)
        stations += [node.cpu, nic.tx, nic.rx]
    return [(s.name, sorted(s._free), s._latest_free, s.busy_time, s.jobs) for s in stations]


def _engines(daemons):
    out = []
    for d in daemons:
        eng = d.engine
        items = [
            (k, it.value, it.nbytes, it.flags, it.exptime, it.cas, it.seq, it.slab.index)
            for k, it in eng._items.items()
        ]
        lru = {idx: list(order) for idx, order in eng._lru.items()}
        out.append((items, lru, eng.stats.as_dict()))
    return out


def _expected_entries(op, legs):
    """(landed, waiting): a join of K legs mints K request entries and
    one join entry, plus K responses when the legs wait on them.  A
    single-leg mutation runs in the caller's frame, with no join."""
    if op != "get_multi" and legs == 1:
        return 2, 2
    return legs + 1, 2 * legs + 1


key = st.sampled_from(KEYS)
item = st.tuples(
    key, st.integers(0, 999), st.sampled_from((1, 100, 2 * KiB, 16 * KiB)),
    st.just(0), st.just(0),
)
batch = st.one_of(
    st.tuples(st.just("get_multi"), st.lists(key, min_size=1, max_size=8)),
    st.tuples(st.just("set_multi"), st.lists(item, min_size=1, max_size=8)),
    st.tuples(st.just("delete_multi"), st.lists(key, min_size=1, max_size=6)),
)
batches = st.lists(
    st.tuples(batch, st.sampled_from((0.0, 0.0, 1e-6, 3e-4))), min_size=1, max_size=20
)

#: Half the keys stored before the sequence starts, so gets hit and miss.
SEED = [("set_multi", [(k, i, 2 * KiB, 0, 0) for i, k in enumerate(KEYS[::2])], 0.0)]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.sampled_from((1, 8)), batches)
def test_landed_batches_match_waiting_legs_with_k_fewer_entries(n, cores, sequence):
    ops = SEED + [(op, arg, advance) for (op, arg), advance in sequence]
    sim_a, mc_a, mcds_a = _bank(n, cores, MemcacheClient)
    sim_b, mc_b, mcds_b = _bank(n, cores, WaitingClient)
    landed = _drive(sim_a, mc_a, ops)
    waited = _drive(sim_b, mc_b, ops)

    assert len(landed) == len(waited) == len(ops)
    for (op, arg, _), got, want in zip(ops, landed, waited):
        result, when, entries, legs = got
        want_result, want_when, want_entries, want_legs = want
        assert result == want_result, (op, arg)
        assert when == want_when, (op, arg)
        assert legs == want_legs
        assert (entries, want_entries) == _expected_entries(op, legs), (op, arg, legs)
    assert _engines(mcds_a) == _engines(mcds_b)
    assert _stations(mc_a, mcds_a) == _stations(mc_b, mcds_b)
    assert mc_a.stats.as_dict() == mc_b.stats.as_dict()
    assert mc_a.endpoint.stats.as_dict() == mc_b.endpoint.stats.as_dict()
    assert "errors" not in mc_a.stats.as_dict()


# --------------------------------------------------------------------------- #
# failed legs keep their waits
# --------------------------------------------------------------------------- #
#: One key per MCD of a 4-MCD crc32 bank.
SPREAD = ["k0", "k1", "k3", "k5"]

FAILED_OPS = [
    ("get_multi", SPREAD),
    ("set_multi", [(k, 7, 2 * KiB, 0, 0) for k in SPREAD]),
    ("delete_multi", SPREAD),
]


def test_the_spread_keys_reach_every_mcd():
    _, mc, _ = _bank(4, 1, MemcacheClient)
    assert sorted(mc.owners(k)[0] for k in SPREAD) == [0, 1, 2, 3]


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=[op for op, _ in FAILED_OPS])
def test_a_dead_mcd_keeps_its_wait_and_books_one_error(op, arg):
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(4, 1, cls)
        daemons[mc.owners(SPREAD[2])[0]].kill()
        runs.append((_drive(sim, mc, [(op, arg, 0.0)]), mc.stats.as_dict(), _engines(daemons)))
    (([(result, when, entries, legs)], stats, engines),
     ([(want_result, want_when, want_entries, _)], want_stats, want_engines)) = runs
    assert (result, when, stats, engines) == (want_result, want_when, want_stats, want_engines)
    assert stats["errors"] == 1
    # The dead leg's undeliverable request is its one entry either way;
    # the three live legs land.
    assert legs == 4 and (entries, want_entries) == (legs + 1, 2 * legs)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=[op for op, _ in FAILED_OPS])
def test_a_killed_client_keeps_every_wait_and_books_an_error_per_leg(op, arg):
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(4, 1, cls)
        # Every request is booked end to end when it is sent; the client
        # is gone by the time the replies leave.
        sim.at(1e-9).callbacks.append(lambda _, node=mc.endpoint.node: node.fail())
        runs.append((_drive(sim, mc, [(op, arg, 0.0)]), mc.stats.as_dict(), _engines(daemons)))
    (([(result, when, entries, legs)], stats, engines),
     ([(want_result, want_when, want_entries, _)], want_stats, want_engines)) = runs
    assert (result, when, stats, engines) == (want_result, want_when, want_stats, want_engines)
    assert stats["errors"] == legs == 4
    # Every response is an undeliverable event, yielded by both.
    assert entries == want_entries == 2 * legs + 1


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
def _traced_warm_read():
    obs = Observability("t", trace=True)
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=4, mcd_memory=2 * MiB, imca=IMCaConfig()),
        obs=obs,
    )
    sim, client = tb.sim, tb.clients[0]
    read = {}

    def scenario():
        fd = yield from client.create("/warm")
        yield from client.write(fd, 0, 64 * KiB)
        yield from client.close(fd)
        fd = yield from client.open("/warm")
        yield from client.read(fd, 0, 64 * KiB)
        seq = sim._seq
        yield from client.read(fd, 16 * KiB, 16 * KiB)
        read["entries"], read["done"] = sim._seq - seq, sim.now

    sim.process(scenario())
    sim.run()
    tracer = obs.tracer
    spans = sorted(
        (s.name, s.tier, s.tid, s.start, s.end, s.child_time) for s in tracer.spans
    )
    return tracer, spans, read


def test_a_traced_warm_read_attributes_every_tier_as_the_waiting_legs_do(monkeypatch):
    tracer, spans, read = _traced_warm_read()
    monkeypatch.setattr(MemcacheClient, "_leg", _waiting_leg)
    want_tracer, want_spans, want_read = _traced_warm_read()
    assert read["done"] == want_read["done"]
    assert (read["entries"], want_read["entries"]) == (5, 9)
    # The same spans, closed at the same instants (in another order:
    # a landed leg's spans close when it returns, not when it lands).
    assert spans == want_spans
    assert tracer.tier_totals() == want_tracer.tier_totals()
    assert sum(s.name == "mc.batch" for s in tracer.spans) >= 4
    assert min(s.exclusive for s in tracer.spans) >= 0.0
