"""Tests for the AllOf condition event."""

import pytest

from repro.sim import Simulator


def test_all_of_waits_for_all():
    sim = Simulator()
    got = []

    def proc(sim):
        t1 = sim.timeout(1, value="a")
        t2 = sim.timeout(3, value="b")
        result = yield sim.all_of([t1, t2])
        got.append((sim.now, sorted(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert got == [(3, ["a", "b"])]


def test_empty_all_of_fires_immediately():
    sim = Simulator()
    got = []

    def proc(sim):
        r = yield sim.all_of([])
        got.append((sim.now, dict(r)))

    sim.process(proc(sim))
    sim.run()
    assert got == [(0, {})]


def test_all_of_with_already_processed_events():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("pre")
    got = []

    def proc(sim, ev):
        yield sim.timeout(2)  # ev processes meanwhile
        r = yield sim.all_of([ev, sim.timeout(1, value="post")])
        got.append((sim.now, sorted(r.values())))

    sim.process(proc(sim, ev))
    sim.run()
    assert got == [(3, ["post", "pre"])]


def test_condition_failure_propagates():
    sim = Simulator()
    caught = []

    def failer(sim):
        yield sim.timeout(1)
        raise ValueError("sub-failed")

    def proc(sim):
        try:
            yield sim.all_of([sim.process(failer(sim)), sim.timeout(10)])
        except ValueError as e:
            caught.append((sim.now, str(e)))

    sim.process(proc(sim))
    sim.run()
    assert caught == [(1, "sub-failed")]


def test_mixed_simulator_events_rejected():
    sim1, sim2 = Simulator(), Simulator()
    t1 = sim1.timeout(1)
    t2 = sim2.timeout(1)
    with pytest.raises(ValueError):
        sim1.all_of([t1, t2])


def test_condition_value_preserves_creation_order():
    sim = Simulator()
    got = []

    def proc(sim):
        slow = sim.timeout(3, value="slow")
        fast = sim.timeout(1, value="fast")
        r = yield sim.all_of([slow, fast])
        got.append(list(r.values()))

    sim.process(proc(sim))
    sim.run()
    # creation order, not completion order
    assert got == [["slow", "fast"]]


@pytest.mark.parametrize("k", [1, 3, 8])
def test_all_of_mints_one_entry_in_the_last_childs_instant(k):
    """K pending children cost the condition exactly one entry of its
    own, booked when the last child fires and run in its instant."""
    sim = Simulator()
    children = [sim.timeout(i + 1, value=i) for i in range(k)]
    seq = sim._seq
    cond = sim.all_of(children)
    fired = []
    cond.callbacks.append(lambda ev: fired.append(sim.now))
    sim.run()
    assert sim._seq - seq == 1
    assert fired == [float(k)]
    assert cond.value == {child: i for i, child in enumerate(children)}


def test_a_failing_child_fails_all_of_and_a_later_failure_surfaces():
    """The first failing child fails the condition in its own instant
    and is defused; the condition ignores a later failure, which stays
    its sender's to handle."""
    sim = Simulator()
    a, b, c = sim.event(), sim.event(), sim.event()
    caught = []

    def waiter():
        try:
            yield sim.all_of([a, b, c])
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    def driver():
        yield sim.timeout(1)
        a.fail(KeyError("first"))
        yield sim.timeout(1)
        b.fail(ValueError("later"))

    sim.process(waiter())
    sim.process(driver())
    with pytest.raises(ValueError, match="later"):
        sim.run()
    assert caught == [(1.0, "first")]
    assert a._defused and not b._defused
