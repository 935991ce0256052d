"""Tests for MemcacheClient get/get_multi singleflight (DESIGN §15).

Concurrent identical keys park on the leader's in-flight fetch instead
of re-issuing it; a failed or interrupted leader re-disperses its
followers and never publishes a poisoned miss.  A flight is a bare
table entry until a follower arrives, so a fetch nobody shares costs
no Event and no scheduler entry.
"""

import pytest

from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached import client as client_mod
from repro.net import Endpoint, IPOIB, Network, Node
from repro.sim import Interrupt, Simulator
from repro.util import MiB

#: Scheduler entries of one uncontended fetch on the bare client below
#: (no FUSE charge): request and response, the lookup and copy CPU
#: riding their visits.  The multi-get's one leg lands its response on
#: the join, whose entry takes the response's place (3 while the leg
#: woke on it).  The same numbers the client costs without a
#: singleflight table at all.
SOLO_GET_ENTRIES = 2
SOLO_GET_MULTI_ENTRIES = 2


def make(n_mcds=1):
    sim = Simulator()
    net = Network(sim, IPOIB)
    cep = Endpoint(net, Node(sim, "client"))
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"m{i}"), 16 * MiB)
        for i in range(n_mcds)
    ]
    return sim, MemcacheClient(cep, daemons), daemons


def _seed(sim, mc, items):
    def w():
        for k, v in items:
            yield from mc.set(k, v, len(v))

    p = sim.process(w())
    sim.run(until=p)


@pytest.fixture
def events_minted(monkeypatch):
    """Count the flight Events the client module creates."""
    minted = []

    class CountingEvent(client_mod.Event):
        def __init__(self, sim):
            minted.append(self)
            super().__init__(sim)

    monkeypatch.setattr(client_mod, "Event", CountingEvent)
    return minted


def test_concurrent_identical_gets_ride_one_fetch(events_minted):
    sim, mc, _ = make()
    _seed(sim, mc, [("k", b"v")])
    mc.endpoint.stats.values.clear()
    got = []

    def proc():
        v = yield from mc.get("k")
        got.append(v.value)

    for _ in range(6):
        sim.process(proc())
    sim.run()
    assert got == [b"v"] * 6
    assert mc.stats.values["sf_follows"] == 5
    assert mc.stats.values["hits"] == 6
    # One RPC on the wire for six logical gets, one Event for five followers.
    assert mc.endpoint.stats.values["calls"] == 1
    assert len(events_minted) == 1
    assert mc._inflight == {}


def test_serial_gets_issue_one_rpc_each_and_follow_nothing(events_minted):
    sim, mc, _ = make()
    _seed(sim, mc, [("k", b"v")])
    mc.endpoint.stats.values.clear()

    def proc():
        for _ in range(6):
            yield from mc.get("k")

    sim.process(proc())
    sim.run()
    assert "sf_follows" not in mc.stats.values
    assert mc.endpoint.stats.values["calls"] == 6
    assert events_minted == []


def test_solo_get_and_get_multi_mint_no_event_and_no_extra_entry(events_minted):
    sim, mc, _ = make()
    _seed(sim, mc, [("a", b"1"), ("b", b"2")])
    spent = {}

    def proc():
        before = sim._seq
        yield from mc.get("a")
        spent["get"] = sim._seq - before
        before = sim._seq
        yield from mc.get_multi(["a", "b"])
        spent["get_multi"] = sim._seq - before

    sim.process(proc())
    sim.run()
    assert spent == {"get": SOLO_GET_ENTRIES, "get_multi": SOLO_GET_MULTI_ENTRIES}
    assert events_minted == []
    # Nothing booked either: a solo fetch leaves no singleflight trace.
    assert not any(k.startswith("sf_") for k in mc.stats.values)
    assert mc._inflight == {}


def test_distinct_keys_do_not_share_flights(events_minted):
    sim, mc, _ = make()
    _seed(sim, mc, [("a", b"1"), ("b", b"2")])
    got = {}

    def proc(k):
        v = yield from mc.get(k)
        got[k] = v.value

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert got == {"a": b"1", "b": b"2"}
    assert mc.stats.values.get("sf_follows", 0) == 0
    assert events_minted == []


def test_followers_see_the_leaders_miss_without_caching_it():
    """A clean miss is a shared result too — but followers must book
    their own misses, keeping hit/miss counters workload-invariant."""
    sim, mc, _ = make()
    results = []

    def proc():
        v = yield from mc.get("ghost")
        results.append(v)

    for _ in range(4):
        sim.process(proc())
    sim.run()
    assert results == [None] * 4
    assert mc.stats.values["sf_follows"] == 3
    assert mc.stats.values["misses"] == 4
    assert mc.endpoint.stats.values["calls"] == 1


def test_a_get_arriving_after_the_leader_finished_leads_its_own_fetch():
    sim, mc, _ = make()
    _seed(sim, mc, [("k", b"v")])
    mc.endpoint.stats.values.clear()
    done = []

    def first():
        yield from mc.get("k")
        done.append(sim.now)

    def late():
        # Wake at the very instant the first get returns.
        yield first_proc
        assert mc._inflight == {}
        v = yield from mc.get("k")
        done.append(v.value)

    first_proc = sim.process(first())
    sim.process(late())
    sim.run()
    assert done[1] == b"v"
    assert "sf_follows" not in mc.stats.values
    assert mc.endpoint.stats.values["calls"] == 2


def test_leader_failure_redisperses_followers():
    """A dead MCD fails the leader's fetch; followers retry on their
    own instead of inheriting a poisoned result."""
    sim, mc, daemons = make()
    _seed(sim, mc, [("k", b"v")])
    mc.endpoint.stats.values.clear()
    daemons[0].node.fail()
    results = []

    def proc():
        results.append((yield from mc.get("k")))

    for _ in range(4):
        sim.process(proc())
    sim.run()
    # A dead MCD is a cache miss at this layer, for leader and
    # followers alike; nobody hangs and nobody caches a phantom value.
    assert results == [None] * 4
    # Every follower was re-dispersed, issued its own fetch, and did not
    # follow again (the first re-dispersed get does not become a leader).
    assert mc.stats.values["sf_follows"] == 3
    assert mc.stats.values["sf_redispersed"] == 3
    assert mc.endpoint.stats.values["calls"] == 4
    assert mc.stats.values["errors"] == 4
    assert mc._inflight == {}


def test_failed_leader_never_publishes_its_miss():
    """The MCD blinks: only the leader's request is lost.  Followers
    must fetch for themselves and find the value — the leader's
    degraded miss is its own."""
    sim, mc, daemons = make()
    _seed(sim, mc, [("k", b"v")])
    node = daemons[0].node
    results = {}

    def proc(name):
        v = yield from mc.get("k")
        results[name] = None if v is None else v.value

    def blink():
        # Down when the leader submits, back before its loss surfaces.
        yield sim.timeout(1e-9)
        node.recover()

    node.fail()
    for name in ("leader", "f1", "f2"):
        sim.process(proc(name))
    sim.process(blink())
    sim.run()
    assert results == {"leader": None, "f1": b"v", "f2": b"v"}
    assert mc.stats.values["sf_redispersed"] == 2
    assert mc.stats.values["hits"] == 2 and mc.stats.values["misses"] == 1


def test_interrupted_leader_redisperses_followers_and_clears_the_table():
    sim, mc, _ = make()
    _seed(sim, mc, [("k", b"v")])
    results = {}

    def leader():
        try:
            yield from mc.get("k")
        except Interrupt:
            results["leader"] = "interrupted"

    def follower(name):
        v = yield from mc.get("k")
        results[name] = v.value

    def interrupter():
        yield sim.timeout(1e-9)
        lead.interrupt("stop")

    lead = sim.process(leader())
    sim.process(follower("f1"))
    sim.process(follower("f2"))
    sim.process(interrupter())
    sim.run()
    assert results == {"leader": "interrupted", "f1": b"v", "f2": b"v"}
    assert mc.stats.values["sf_redispersed"] == 2
    assert mc._inflight == {}


def test_get_multi_deduplicates_and_rides_inflight_fetches():
    sim, mc, _ = make()
    _seed(sim, mc, [("a", b"1"), ("b", b"2")])
    mc.stats.values.clear()
    out = {}

    def leader():
        v = yield from mc.get("a")
        out["leader"] = v.value

    def multi():
        got = yield from mc.get_multi(["a", "a", "b"])
        out["multi"] = {k: v.value for k, v in got.items()}

    sim.process(leader())
    sim.process(multi())
    sim.run()
    assert out["leader"] == b"1"
    assert out["multi"] == {"a": b"1", "b": b"2"}
    # The multi's "a" rode the leader's in-flight fetch.
    assert mc.stats.values["sf_follows"] == 1
    # One hit per distinct key per caller, however it was fetched.
    assert mc.stats.values["hits"] == 3
    assert mc._inflight == {}


def test_get_follows_a_get_multi_and_a_failed_batch_redisperses_it():
    sim, mc, daemons = make()
    _seed(sim, mc, [("a", b"1"), ("b", b"2")])
    mc.endpoint.stats.values.clear()
    daemons[0].node.fail()
    out = {}

    def multi():
        out["multi"] = yield from mc.get_multi(["a", "b"])

    def rider():
        out["rider"] = yield from mc.get_multi(["b", "c"])

    sim.process(multi())
    sim.process(rider())
    sim.run()
    assert out == {"multi": {}, "rider": {}}
    # "b" rode the first batch, was re-dispersed when it failed and
    # fetched alone; "c" was the rider's own (failed) batch.
    assert mc.stats.values["sf_follows"] == 1
    assert mc.stats.values["sf_redispersed"] == 1
    assert mc.endpoint.stats.values["calls"] == 3
    assert mc.stats.values["misses"] == 4
    assert mc._inflight == {}


def test_aborted_get_multi_leaves_no_key_behind():
    sim, mc, _ = make(n_mcds=2)
    _seed(sim, mc, [("a", b"1"), ("b", b"2"), ("c", b"3")])
    out = {}

    def multi():
        try:
            yield from mc.get_multi(["a", "b", "c"])
        except Interrupt:
            out["multi"] = "interrupted"

    def follower():
        v = yield from mc.get("b")
        out["follower"] = v.value

    def interrupter():
        yield sim.timeout(1e-9)
        assert set(mc._inflight) == {"a", "b", "c"}
        victim.interrupt("stop")

    victim = sim.process(multi())
    sim.process(follower())
    sim.process(interrupter())
    sim.run()
    # The abort published a failure, not a phantom miss: the follower
    # fetched "b" itself.
    assert out == {"multi": "interrupted", "follower": b"2"}
    assert mc.stats.values["sf_redispersed"] == 1
    assert mc._inflight == {}
