"""CMCache stat singleflight (DESIGN §15): concurrent stats of one path
from one client share one lookup, and a follower books what its leader
booked."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core import cmcache as cmcache_mod
from repro.localfs.fs import FsError
from repro.memcached.engine import MAX_KEY_LEN
from repro.sim import Interrupt
from repro.sim.sync import Barrier
from repro.workloads.base import drive

N = 6


def make():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=2))
    return tb, tb.clients[0], tb.cmcaches[0]


def _create(tb, client, path):
    def w():
        fd = yield from client.create(path)
        yield from client.write(fd, 0, 4096)
        yield from client.close(fd)

    drive(tb.sim, w())


def _cool(tb):
    """Empty every MCD: the next stat of any path misses the bank."""
    for mcd in tb.mcds:
        mcd.engine.flush_all()


def _burst(tb, client, path, n=N):
    """*n* processes stat *path* in the same instant; their results (or
    the exception each caught) in completion order."""
    sim = tb.sim
    barrier = Barrier(sim, n)
    out = []

    def proc():
        yield barrier.wait()
        try:
            out.append((yield from client.stat(path)))
        except FsError as e:
            out.append(e)

    sim.run(until=sim.all_of([sim.process(proc()) for _ in range(n)]))
    return out


@pytest.fixture
def events_minted(monkeypatch):
    """Count the flight Events the translator module creates."""
    minted = []

    class CountingEvent(cmcache_mod.Event):
        def __init__(self, sim):
            minted.append(self)
            super().__init__(sim)

    monkeypatch.setattr(cmcache_mod, "Event", CountingEvent)
    return minted


def test_cold_burst_books_one_miss_per_stat_and_asks_the_server_once():
    """One answer from the server is N misses — not one miss and N-1
    hits, which is what a follower that always books a hit reports."""
    tb, client, cm = make()
    _create(tb, client, "/cold")
    _cool(tb)
    cm.metrics.values.clear()
    tb.server.stats.values.clear()
    out = _burst(tb, client, "/cold")
    assert [st.size for st in out] == [4096] * N
    assert cm.metrics.get("stat_hits", 0) == 0
    assert cm.metrics["stat_misses"] == N
    assert cm.metrics["fastpath_stat_follows"] == N - 1
    assert tb.server.stats["fop_stat"] == 1


def test_warm_burst_books_hits_and_hands_every_caller_its_own_copy(events_minted):
    tb, client, cm = make()
    _create(tb, client, "/warm")
    cm.metrics.values.clear()
    calls = cm.mc.endpoint.stats.get("calls", 0)
    out = _burst(tb, client, "/warm")
    assert cm.metrics["stat_hits"] == N
    assert cm.metrics.get("stat_misses", 0) == 0
    assert cm.mc.endpoint.stats["calls"] == calls + 1
    assert len({id(st) for st in out}) == N
    assert all(st == out[0] for st in out)
    # One Event for the N-1 followers; the leader's MCD get had no sharer.
    assert len(events_minted) == 1
    assert cm._stat_flights == {}


def test_followers_of_an_uncacheable_path_book_nothing():
    tb, client, cm = make()
    path = "/" + "x" * MAX_KEY_LEN
    _create(tb, client, path)
    cm.metrics.values.clear()
    tb.server.stats.values.clear()
    out = _burst(tb, client, path)
    assert [st.size for st in out] == [4096] * N
    assert "stat_hits" not in cm.metrics.values
    assert "stat_misses" not in cm.metrics.values
    assert tb.server.stats["fop_stat"] == 1


def test_solo_stat_mints_no_event_and_books_no_singleflight_counter(events_minted):
    tb, client, cm = make()
    _create(tb, client, "/solo")
    cm.metrics.values.clear()

    def w():
        yield from client.stat("/solo")
        yield from client.stat("/solo")

    drive(tb.sim, w())
    assert events_minted == []
    assert cm.metrics.as_dict() == {"stat_hits": 2}
    assert cm._stat_flights == {}


def test_a_stat_arriving_after_the_leader_finished_leads_its_own_lookup():
    tb, client, cm = make()
    _create(tb, client, "/late")
    sim = tb.sim
    calls = cm.mc.endpoint.stats.get("calls", 0)

    def first():
        yield from client.stat("/late")

    def late():
        yield lead
        yield from client.stat("/late")

    lead = sim.process(first())
    sim.run(until=sim.process(late()))
    assert "fastpath_stat_follows" not in cm.metrics.values
    assert cm.mc.endpoint.stats["calls"] == calls + 2


def test_failing_leader_redisperses_every_follower():
    """ENOENT at the server raises in the leader; each follower must
    run its own lookup (and raise its own error), never share one."""
    tb, client, cm = make()
    tb.server.stats.values.clear()
    out = _burst(tb, client, "/ghost")
    assert all(isinstance(e, FsError) for e in out) and len(out) == N
    assert cm.metrics["fastpath_stat_follows"] == N - 1
    assert cm.metrics["fastpath_stat_redispersed"] == N - 1
    # Re-dispersed followers do not follow one another.
    assert tb.server.stats["fop_stat"] == N
    assert cm.metrics["stat_misses"] == N
    assert cm._stat_flights == {}


def test_interrupted_leader_redisperses_followers_and_clears_the_table():
    tb, client, cm = make()
    _create(tb, client, "/f")
    sim = tb.sim
    out = {}

    def leader():
        try:
            yield from client.stat("/f")
        except Interrupt:
            out["leader"] = "interrupted"

    def follower():
        st = yield from client.stat("/f")
        out["follower"] = st.size

    def interrupter():
        # Once the follower has parked on the leader's flight.
        while cm._stat_flights.get("/f") is None:
            yield sim.timeout(1e-6)
        lead.interrupt("stop")

    lead = sim.process(leader())
    sim.process(follower())
    sim.process(interrupter())
    sim.run()
    assert out == {"leader": "interrupted", "follower": 4096}
    assert cm.metrics["fastpath_stat_redispersed"] == 1
    assert cm._stat_flights == {}
    assert cm.mc._inflight == {}
