"""Tests for the kernel fast path: timed waits (a process yields a
float), station O(1) queries, STOP-priority run-until markers, and
wait-stats gating."""

import pytest

from repro.sim import FifoStation, Simulator
from repro.sim.events import NORMAL, STOP, URGENT


# --------------------------------------------------------------------------- #
# timed waits (two test ids keep the name of the pooled timeout the float
# form replaced: the ids are pinned in the suite's floor list)
# --------------------------------------------------------------------------- #
def test_pooled_timeout_fires_like_a_timeout():
    sim = Simulator()
    seen = []

    def proc():
        got = yield sim.now + 1.5
        seen.append((sim.now, got))
        got = yield sim.now + 0.5
        seen.append((sim.now, got))

    sim.process(proc())
    sim.run()
    assert seen == [(1.5, None), (2.0, None)]


def test_station_run_returns_its_completion_time():
    sim = Simulator()
    st = FifoStation(sim)

    def proc():
        done = st.run(1.0)
        assert done == 1.0 and type(done) is float
        yield done
        yield st.run(1.0)

    sim.process(proc())
    sim.run()
    assert sim.now == 2.0
    # Outside a process the same number becomes an event.
    fired = []
    sim.at(st.run(1.0)).callbacks.append(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [3.0]


def test_pooling_preserves_fifo_ordering_of_simultaneous_events():
    # Two processes sleeping to identical instants must resume in
    # scheduling order, exactly as with fresh Timeout objects.
    def trace(wait):
        sim = Simulator()
        order = []

        def proc(tag):
            for i in range(4):
                yield wait(sim, 0.25)
                order.append((tag, sim.now))

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        return order

    woken = trace(lambda sim, delay: sim.now + delay)
    plain = trace(lambda sim, delay: sim.timeout(delay))
    assert woken == plain


# --------------------------------------------------------------------------- #
# station O(1) queries
# --------------------------------------------------------------------------- #
def test_next_free_is_the_heap_minimum():
    sim = Simulator()
    st = FifoStation(sim, servers=3)
    st.reserve(5.0)
    st.reserve(1.0)
    st.reserve(3.0)
    assert st._free[0] == 1.0 == min(st._free)
    st.reserve(1.0)  # lands on the server free at 1.0
    assert st._free[0] == 2.0 == min(st._free)


def test_backlog_matches_recomputed_latest_free():
    sim = Simulator()
    st = FifoStation(sim, servers=3)
    # Deterministic pseudo-random reservation pattern.  A server's free
    # time only grows, so the latest free time never falls.
    x = 1
    latest = 0.0
    for _ in range(200):
        x = (x * 1103515245 + 12345) % (1 << 31)
        _, end = st.reserve((x % 997) / 100.0)
        latest = max(latest, end)
        assert max(st._free) == latest
        assert st.backlog() == max(0.0, latest - sim.now)


def test_backlog_zero_when_idle():
    sim = Simulator()
    st = FifoStation(sim, servers=2)
    assert st.backlog() == 0.0
    st.reserve(2.0)

    def proc():
        yield sim.timeout(5.0)

    sim.process(proc())
    sim.run()
    # Reservation ended at t=2, now t=5: backlog clamps at zero.
    assert st.backlog() == 0.0


# --------------------------------------------------------------------------- #
# STOP priority / run(until=...)
# --------------------------------------------------------------------------- #
def test_priority_constants_are_ordered():
    assert STOP < URGENT < NORMAL


def test_run_until_halts_before_same_time_events():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(1.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=1.0)
    # The STOP marker outranks the user timeout at the same instant.
    assert fired == []
    assert sim.now == 1.0
    sim.run()
    assert fired == [1.0]


def test_run_until_lands_on_the_exact_float():
    sim = Simulator(initial_time=0.1)
    target = 0.30000000000000004  # not representable as 0.1 + 0.2's neighbour
    sim.run(until=target)
    assert sim.now == target


def test_run_until_past_raises():
    sim = Simulator(initial_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


# --------------------------------------------------------------------------- #
# station-statistics gating
# --------------------------------------------------------------------------- #
def test_bare_simulator_tracks_wait_stats_by_default():
    sim = Simulator()
    st = FifoStation(sim)
    st.reserve(1.0)
    st.reserve(1.0)
    assert st.wait_stats.n == 2
    assert (st.jobs, st.busy_time) == (2, 2.0)


def test_untracked_simulator_skips_wait_stats():
    sim = Simulator()
    sim.track_station_stats = False
    st = FifoStation(sim)
    st.reserve(1.0)
    st.reserve(1.0)

    def proc():
        yield st.run(1.0)

    sim.process(proc())
    sim.run()
    assert st.wait_stats.n == 0
    # No statistic moves; the queue itself is booked as ever.
    assert (st.jobs, st.busy_time) == (0, 0.0)
    assert st._free == [3.0]
