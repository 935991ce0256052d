"""Unit tests for the DES core: clock, run loop, event semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    EmptySchedule,
    Event,
    SimulationError,
    Simulator,
)
from repro.sim.events import NORMAL, URGENT


def test_initial_time():
    assert Simulator().now == 0.0
    assert Simulator(5.0).now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(2.5)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [2.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_value_passed_through():
    sim = Simulator()
    got = []

    def proc(sim):
        got.append((yield sim.timeout(1, value="payload")))

    sim.process(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1)

    sim.process(ticker(sim))
    sim.run(until=10)
    assert sim.now == 10


def test_run_until_time_does_not_process_events_at_until():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=10)
    # The stop event is urgent, so the timeout at t=10 has NOT run yet.
    assert fired == []
    sim.run()
    assert fired == [10]


def test_run_until_past_raises():
    sim = Simulator(100.0)
    with pytest.raises(ValueError):
        sim.run(until=50)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 3


def test_run_until_event_never_fires_raises():
    sim = Simulator()
    orphan = sim.event()

    def proc(sim):
        yield sim.timeout(1)

    sim.process(proc(sim))
    with pytest.raises(EmptySchedule):
        sim.run(until=orphan)


def test_empty_run_returns_immediately():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_step_on_empty_heap_raises():
    with pytest.raises(EmptySchedule):
        Simulator().step()


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
        sim.process(waiter(sim, delay, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_at_equal_times():
    sim = Simulator()
    order = []

    def waiter(sim, tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in "abcdef":
        sim.process(waiter(sim, tag))
    sim.run()
    assert order == list("abcdef")


def test_event_succeed_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc(sim, ev):
        got.append((yield ev))

    def trigger(sim, ev):
        yield sim.timeout(1)
        ev.succeed("hello")

    sim.process(proc(sim, ev))
    sim.process(trigger(sim, ev))
    sim.run()
    assert got == ["hello"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_event_failure_propagates_to_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_process_exception_propagates_to_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_waiting_process_receives_failure():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("inner")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError as e:
            caught.append(str(e))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["inner"]


def test_yield_non_event_raises_inside_process():
    sim = Simulator()
    caught = []

    def bad(sim):
        try:
            yield "nope"
        except SimulationError as e:
            caught.append(str(e))

    sim.process(bad(sim))
    sim.run()
    assert caught and "non-event" in caught[0]


def test_yield_already_processed_event_continues_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    times = []

    def proc(sim, ev):
        yield sim.timeout(5)
        value = yield ev  # processed long ago; must not block
        times.append((sim.now, value))

    sim.process(proc(sim, ev))
    sim.run()
    assert times == [(5, "early")]


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4)
    assert sim.peek() == 4


def test_nested_processes_compose():
    sim = Simulator()

    def inner(sim, d):
        yield sim.timeout(d)
        return d * 10

    def outer(sim):
        a = yield sim.process(inner(sim, 1))
        b = yield sim.process(inner(sim, 2))
        return a + b

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == 30
    assert sim.now == 3


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def worker(sim, wid):
            for i in range(5):
                yield sim.timeout(0.1 * ((wid + i) % 3 + 1))
                log.append((round(sim.now, 6), wid, i))

        for w in range(4):
            sim.process(worker(sim, w))
        sim.run()
        return log

    assert build() == build()


# --------------------------------------------------------------------------- #
# the schedule's total order, against an oracle derived from the spec
# --------------------------------------------------------------------------- #
# Delay palette: zero (same instant), sub-microsecond ties, a few
# microseconds, mid-range, and six orders of magnitude further out.
DELAYS = (0.0, 1e-7, 3e-7, 1e-6, 5e-6, 1e-3, 10.0, 1e6)
PRIORITIES = (URGENT, NORMAL)

spec_lists = st.lists(
    st.tuples(st.sampled_from(DELAYS), st.sampled_from(PRIORITIES)),
    min_size=1,
    max_size=60,
)


def _succeeding(sim, callback):
    ev = Event(sim)
    ev._ok = True
    ev.callbacks.append(callback)
    return ev


def _fire_order(spec) -> tuple[list[int], float]:
    """Schedule one event per (delay, priority) and record firing order."""
    sim = Simulator()
    order: list[int] = []
    for i, (delay, priority) in enumerate(spec):
        sim._schedule(_succeeding(sim, lambda e, i=i: order.append(i)), priority, delay)
    sim.run()
    return order, sim.now


@given(spec_lists)
@settings(max_examples=60, deadline=None)
def test_fire_order_matches_total_order_oracle(spec):
    order, end = _fire_order(spec)
    # seq is minted in spec order, so the strict total order is fully
    # predictable from the spec itself.
    assert order == sorted(range(len(spec)), key=lambda i: (spec[i][0], spec[i][1], i))
    assert end == max(delay for delay, _ in spec)


@given(spec_lists)
@settings(max_examples=40, deadline=None)
def test_nested_scheduling_matches_total_order_oracle(spec):
    """Callbacks that schedule follow-ups while the schedule drains
    still fire in (time, priority, seq) order."""
    sim = Simulator()
    order = []

    def chain(i, delay, priority):
        def fired(_e):
            order.append(i)
            if delay > 0:
                follow = _succeeding(sim, lambda _f: order.append(~i))
                sim._schedule(follow, priority, delay / 16.0)

        sim._schedule(_succeeding(sim, fired), priority, delay)

    for i, (delay, priority) in enumerate(spec):
        chain(i, delay, priority)
    sim.run()

    # The oracle: a sorted list of (time, priority, seq, tag) replayed
    # by repeatedly taking its minimum; seq is minted in scheduling order.
    pending = [(delay, priority, i + 1, i) for i, (delay, priority) in enumerate(spec)]
    seq = len(spec)
    expected = []
    while pending:
        entry = min(pending)
        pending.remove(entry)
        when, priority, _, tag = entry
        expected.append(tag)
        if tag >= 0 and spec[tag][0] > 0:
            seq += 1
            pending.append((when + spec[tag][0] / 16.0, priority, seq, ~tag))
    assert order == expected
    assert sim._seq == seq


def test_urgent_beats_normal_at_same_time():
    spec = [(1e-6, NORMAL), (1e-6, URGENT), (1e-6, NORMAL), (1e-6, URGENT)]
    order, _ = _fire_order(spec)
    assert order == [1, 3, 0, 2]


def test_peek_steps_through_interleaved_defused_failures():
    """peek() and pending track the schedule step by step, including
    when cancelled (defused-failure) events are interleaved in it."""
    sim = Simulator()
    for i, delay in enumerate([3e-6, 1e-6, 2e-6, 1.0]):
        ev = Event(sim)
        if i % 2:
            ev._ok = True
        else:
            # A cancelled operation: failed but explicitly defused, so
            # the run loop discards it silently.
            ev._ok = False
            ev._value = RuntimeError("cancelled")
            ev._defused = True
        sim._schedule(ev, NORMAL, delay)
    trace = []
    while True:
        trace.append((sim.peek(), sim.pending))
        try:
            sim.step()
        except EmptySchedule:
            break
        trace.append(sim.now)
    inf = float("inf")
    assert trace == [
        (1e-6, 4), 1e-6, (2e-6, 3), 2e-6, (3e-6, 2), 3e-6, (1.0, 1), 1.0, (inf, 0),
    ]
