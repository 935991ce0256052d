"""Tests for the event-driven reference station (``reference_station.py``)."""

import pytest

from repro.sim import Simulator
from tests.sim.reference_station import Resource


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert len(res.queue) == 1


def test_release_grants_next_waiter_fifo():
    sim = Simulator()
    res = Resource(sim)
    order = []

    def user(sim, res, tag, hold):
        req = res.request()
        yield req
        order.append(("acq", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for tag, hold in [("a", 2), ("b", 1), ("c", 1)]:
        sim.process(user(sim, res, tag, hold))
    sim.run()
    assert order == [("acq", "a", 0), ("acq", "b", 2), ("acq", "c", 3)]


def test_context_manager_releases():
    sim = Simulator()
    res = Resource(sim)

    def user(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(1)
        # released on exit

    sim.process(user(sim, res))
    sim.process(user(sim, res))
    sim.run()
    assert sim.now == 2
    assert res.count == 0


def test_release_unheld_request_raises():
    sim = Simulator()
    res = Resource(sim)
    req = res.request()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim)
    held = res.request()
    waiting = res.request()
    assert waiting in res.queue
    waiting.cancel()
    assert waiting not in res.queue
    res.release(held)
    assert not waiting.triggered  # cancelled: never granted


def test_utilization_tracking():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(4)
        res.release(req)
        yield sim.timeout(6)

    sim.process(user(sim, res))
    sim.run()
    assert res.utilization() == pytest.approx(0.4)


def test_never_exceeds_capacity_under_churn():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    max_seen = 0

    def user(sim, res, i):
        nonlocal max_seen
        req = res.request()
        yield req
        max_seen = max(max_seen, res.count)
        assert res.count <= res.capacity
        yield sim.timeout(0.01 + (i % 5) * 0.003)
        res.release(req)

    for i in range(100):
        sim.process(user(sim, res, i))
    sim.run()
    assert max_seen == 3
    assert res.count == 0
