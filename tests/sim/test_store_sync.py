"""Tests for Store and Barrier."""

import pytest

from repro.sim import Barrier, Simulator, Store


def test_store_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(3):
            yield sim.timeout(1)
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [(1, 0), (2, 1), (3, 2)]


def test_store_get_before_put_blocks():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(5)
        yield store.put("x")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [(5, "x")]


def test_a_put_is_scheduled_before_the_getter_it_serves():
    """A put's event takes its entry before the parked getter's, so the
    putter resumes first in the instant; one entry each."""
    sim = Simulator()
    store = Store(sim)
    order = []

    def consumer():
        item = yield store.get()
        order.append(("got", item, sim.now))

    def producer():
        yield sim.timeout(2)
        seq = sim._seq
        put = store.put("x")
        assert sim._seq - seq == 2
        yield put
        order.append(("put", sim.now))

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert order == [("put", 2), ("got", "x", 2)]
    assert len(store) == 0


def test_barrier_releases_all_at_last_arrival():
    sim = Simulator()
    bar = Barrier(sim, parties=3)
    released = []

    def party(sim, bar, delay, tag):
        yield sim.timeout(delay)
        yield bar.wait()
        released.append((tag, sim.now))

    for delay, tag in [(1, "a"), (2, "b"), (5, "c")]:
        sim.process(party(sim, bar, delay, tag))
    sim.run()
    assert sorted(released) == [("a", 5), ("b", 5), ("c", 5)]


def test_barrier_is_cyclic():
    sim = Simulator()
    bar = Barrier(sim, parties=2)
    gens = []

    def party(sim, bar):
        for _ in range(3):
            gen = yield bar.wait()
            gens.append(gen)
            yield sim.timeout(1)

    sim.process(party(sim, bar))
    sim.process(party(sim, bar))
    sim.run()
    assert sorted(gens) == [0, 0, 1, 1, 2, 2]


def test_barrier_validation():
    with pytest.raises(ValueError):
        Barrier(Simulator(), parties=0)
