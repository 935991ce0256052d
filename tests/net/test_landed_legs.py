"""A batch leg is a booked callback that lands its reply on its join
(DESIGN §7, "Legs are booked callbacks" and "Landed legs"):
``get_multi``, ``set_multi`` and ``delete_multi`` over K MCDs cost
K + 1 scheduler entries, not 2K + 1, and no leg drives a generator.

The reference is the same client with every leg a strand that sleeps on
its response and then returns it (``WaitingClient``).  Random batch
sequences run through both on twin banks of 1-4 MCDs with 1- or 8-core
nodes, one op at a time, and every reply, engine item, LRU order,
counter, station booking and completion instant must be equal —
exactly, since a landing is the float the response transfer booked.
Only the entry count differs.  Legs whose RPC fails — a dead MCD, a
killed client, an MCD killed while the request is on the wire, a lost
request or response — keep their waits and book one error each; a
handler that raises fails the join as a strand's exception would; legs
under a health policy are strands; and a traced warm read attributes
every tier exactly as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observability, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.memcached import McError, MemcacheClient, MemcachedDaemon
from repro.memcached import client as client_module
from repro.memcached.client import HealthPolicy
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import KiB, MiB


KEYS = [f"k{i}" for i in range(12)]


def _waiting_fork(self, op, legs, name):
    """The reference fork: each leg a strand that sleeps on its
    response, then returns it."""
    return self.endpoint.net.sim.gather(
        [self._call_or_none(idx, op, payload) for idx, payload in legs], name=name
    )


class WaitingClient(MemcacheClient):
    _fork = _waiting_fork


def _bank(n, cores, client_cls, **kwargs):
    sim = Simulator()
    net = Network(sim, IPOIB)
    ep = Endpoint(net, Node(sim, "client"))
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"m{i}", cores=cores), 4 * MiB)
        for i in range(n)
    ]
    return sim, client_cls(ep, daemons, **kwargs), daemons


def _owners(mc, op, arg):
    """The number of legs *op* sends: one per distinct primary."""
    keys = [a[0] for a in arg] if op == "set_multi" else arg
    return len({mc.owners(k)[0] for k in keys})


def _drive(sim, mc, ops):
    """Run *ops* one at a time; per op: (result, completion instant,
    scheduler entries minted, legs sent).  An op that raises records
    its exception's type and message as its result."""
    out = []

    def proc():
        for op, arg, advance in ops:
            if advance:
                yield sim.timeout(advance)
            legs = _owners(mc, op, arg)
            seq = sim._seq
            try:
                result = yield from getattr(mc, op)(arg)
            except McError as exc:
                result = (type(exc), str(exc))
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
    return [(s.name, sorted(s._free), s.busy_time, s.jobs) for s in stations]


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


def _state(sim, mc, daemons):
    """Everything the model can see after a run, entry counts aside."""
    return (
        sim.now, _engines(daemons), _stations(mc, daemons), mc.stats.as_dict(),
        mc.endpoint.stats.as_dict(), mc.endpoint.net.stats.as_dict(),
    )


def _twins(ops, n=4, cores=1, setup=None, **kwargs):
    """Run *ops* on a callback-leg bank and a waiting-leg bank;
    ``setup(sim, mc, daemons)`` prepares each before the run."""
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(n, cores, cls, **kwargs)
        if setup is not None:
            setup(sim, mc, daemons)
        runs.append((_drive(sim, mc, ops), _state(sim, mc, daemons)))
    return runs


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
    (landed, state), (waited, want_state) = _twins(ops, n, cores)

    assert len(landed) == len(waited) == len(ops)
    for (op, arg, _), got, want in zip(ops, landed, waited):
        result, when, entries, legs = got
        want_result, want_when, want_entries, want_legs = want
        assert result == want_result, (op, arg)
        assert when == want_when, (op, arg)
        assert legs == want_legs
        assert (entries, want_entries) == _expected_entries(op, legs), (op, arg, legs)
    assert state == want_state
    assert "errors" not in state[3]


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
IDS = [op for op, _ in FAILED_OPS]


def test_the_spread_keys_reach_every_mcd():
    _, mc, _ = _bank(4, 1, MemcacheClient)
    assert sorted(mc.owners(k)[0] for k in SPREAD) == [0, 1, 2, 3]


def _one_failed_leg(op, arg, setup):
    """Twin runs of one batch over the four MCDs in which *setup* makes
    exactly one leg fail; asserts the twins agree and returns the
    callback run's (entries, legs) and the waiting run's entries."""
    (([(result, when, entries, legs)], state),
     ([(want_result, want_when, want_entries, _)], want_state)) = _twins(
        [(op, arg, 0.0)], setup=setup
    )
    assert (result, when, state) == (want_result, want_when, want_state)
    assert state[3]["errors"] == 1
    assert legs == 4
    return entries, want_entries


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_dead_mcd_keeps_its_wait_and_books_one_error(op, arg):
    def kill(sim, mc, daemons):
        daemons[mc.owners(SPREAD[2])[0]].kill()

    # The dead leg's undeliverable request is its one entry either way;
    # the three live legs land.
    assert _one_failed_leg(op, arg, kill) == (4 + 1, 2 * 4)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_an_mcd_killed_while_the_request_is_on_the_wire_fails_at_arrival(op, arg):
    def kill_later(sim, mc, daemons):
        victim = daemons[mc.owners(SPREAD[2])[0]]
        sim.at(1e-9).callbacks.append(lambda _: victim.kill())

    # Its request was delivered on the books: the leg wakes at the
    # arrival, finds the node dead and books the error — one entry.
    entries, want_entries = _one_failed_leg(op, arg, kill_later)
    assert (entries, want_entries) == (4 + 1, 2 * 3 + 1 + 1)


class _Script:
    """A loss rng that answers the draws it is given, in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def _lossy(draws):
    """Arm loss on the third spread key's MCD, every draw scripted: a
    draw below 0.5 drops the message it is drawn for."""

    def setup(sim, mc, daemons):
        net = mc.endpoint.net
        net.loss_rng = _Script(draws)
        net.degrade(daemons[mc.owners(SPREAD[2])[0]].node, loss_prob=0.5)

    return setup


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_lost_request_keeps_its_wait_and_books_one_error(op, arg):
    assert _one_failed_leg(op, arg, _lossy([0.1])) == (4 + 1, 2 * 4)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_lost_response_keeps_its_wait_and_books_one_error(op, arg):
    # The request arrives (the command runs), the response is lost: the
    # leg books the lost frame's event and fails on it, as the strand.
    assert _one_failed_leg(op, arg, _lossy([0.9, 0.1])) == (4 + 2, 2 * 4 + 1)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_killed_client_keeps_every_wait_and_books_an_error_per_leg(op, arg):
    def kill_client(sim, mc, daemons):
        # Every request is booked end to end when it is sent; the client
        # is gone by the time the replies leave.
        sim.at(1e-9).callbacks.append(lambda _, node=mc.endpoint.node: node.fail())

    (([(result, when, entries, legs)], state),
     ([(want_result, want_when, want_entries, _)], want_state)) = _twins(
        [(op, arg, 0.0)], setup=kill_client
    )
    assert (result, when, state) == (want_result, want_when, want_state)
    assert state[3]["errors"] == legs == 4
    # Every response is an undeliverable event, yielded by both.
    assert entries == want_entries == 2 * legs + 1


BAD_OPS = [
    ("get_multi", ["k0", "k1", "bad key", "k5"]),
    ("set_multi", [(k, 7, 2 * KiB, 0, 0) for k in ("k0", "k1", "bad key", "k5")]),
    ("delete_multi", ["k0", "k1", "bad key", "k5"]),
]


@pytest.mark.parametrize("op, arg", BAD_OPS, ids=[op for op, _ in BAD_OPS])
def test_a_handler_that_raises_fails_the_join_as_the_strand_does(op, arg):
    """An invalid key makes the MCD's handler raise ``McError``: the
    join fails with it at that request's arrival, the batch raises it
    to the caller, and the other legs finish on their own."""
    ops = SEED + [(op, arg, 0.0), ("get_multi", KEYS, 1e-3)]
    (out, state), (want_out, want_state) = _twins(ops)
    assert [o[:2] for o in out] == [o[:2] for o in want_out]
    assert state == want_state
    result = out[1][0]
    assert result[0] is McError and "whitespace" in result[1]
    assert "errors" not in state[3]


def test_legs_under_a_health_policy_stay_strands(monkeypatch):
    """Deadlines, retries and rejoin probes need timers and RPCs before
    the leg's own, so a policy's legs run as strands that wait: 2K + 1
    entries, as the reference, and no callback leg is made."""
    ops = SEED + [(op, arg, 0.0) for op, arg in FAILED_OPS]
    (plain, _), _ = _twins(ops)

    def no_leg(*args, **kwargs):
        raise AssertionError("a callback leg under a health policy")

    monkeypatch.setattr(client_module, "Leg", no_leg)
    (out, state), (want_out, want_state) = _twins(ops, health=HealthPolicy())
    assert out == want_out and state == want_state
    assert [o[:2] for o in out] == [o[:2] for o in plain]
    for (op, arg, _), (_, _, entries, legs) in zip(ops[1:], out[1:]):
        assert entries == 2 * legs + 1 == 9


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
    monkeypatch.setattr(MemcacheClient, "_fork", _waiting_fork)
    want_tracer, want_spans, want_read = _traced_warm_read()
    assert read["done"] == want_read["done"]
    assert (read["entries"], want_read["entries"]) == (5, 9)
    # The same spans, closed at the same instants (in another order:
    # a landed leg's spans close when it lands, not when it wakes), on
    # the same tracks — a leg is a track of its own, named as a strand.
    assert spans == want_spans
    assert tracer.track_names() == want_tracer.track_names()
    assert tracer.tier_totals() == want_tracer.tier_totals()
    assert sum(s.name == "mc.batch" for s in tracer.spans) >= 4
    assert min(s.exclusive for s in tracer.spans) >= 0.0
