"""Tests for the analytic FIFO station."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from repro.sim import FifoStation, Simulator


def test_idle_station_serves_immediately():
    sim = Simulator()
    st = FifoStation(sim)
    start, end = st.reserve(2.0)
    assert (start, end) == (0.0, 2.0)


def test_back_to_back_reservations_queue():
    sim = Simulator()
    st = FifoStation(sim)
    assert st.reserve(1.0) == (0.0, 1.0)
    assert st.reserve(1.0) == (1.0, 2.0)
    assert st.reserve(0.5) == (2.0, 2.5)


def test_multi_server_parallelism():
    sim = Simulator()
    st = FifoStation(sim, servers=2)
    assert st.reserve(1.0) == (0.0, 1.0)
    assert st.reserve(1.0) == (0.0, 1.0)  # second server
    assert st.reserve(1.0) == (1.0, 2.0)  # queues behind earliest-free


def test_earliest_free_server_assignment():
    sim = Simulator()
    st = FifoStation(sim, servers=2)
    st.reserve(5.0)  # server A busy until 5
    st.reserve(1.0)  # server B busy until 1
    # Next job must go to B (free at 1), not A (free at 5).
    start, end = st.reserve(1.0)
    assert (start, end) == (1.0, 2.0)


def test_arrival_in_future_chains():
    sim = Simulator()
    st = FifoStation(sim)
    start, end = st.reserve(1.0, arrival=10.0)
    assert (start, end) == (10.0, 11.0)


def test_run_completion_is_now_plus_delay_to_the_last_bit():
    sim = Simulator(initial_time=0.1)
    st = FifoStation(sim)
    st.reserve(0.0, arrival=0.3)  # busy until 0.3
    assert 0.3 + 0.123 == 0.423
    assert st.run(0.123) == 0.1 + (0.423 - 0.1) == 0.42299999999999993


def test_run_returns_timeout_until_completion():
    sim = Simulator()
    st = FifoStation(sim)
    done = []

    def proc(sim, st, tag):
        yield st.run(1.0)
        done.append((tag, sim.now))

    sim.process(proc(sim, st, "a"))
    sim.process(proc(sim, st, "b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_station_state_advances_with_clock():
    sim = Simulator()
    st = FifoStation(sim)

    def proc(sim, st):
        st.reserve(1.0)  # busy [0, 1]
        yield sim.timeout(5.0)
        start, end = st.reserve(1.0)  # station idle again
        assert (start, end) == (5.0, 6.0)

    sim.process(proc(sim, st))
    sim.run()


def test_negative_service_rejected():
    sim = Simulator()
    st = FifoStation(sim)
    with pytest.raises(ValueError):
        st.reserve(-0.1)


def test_servers_validation():
    with pytest.raises(ValueError):
        FifoStation(Simulator(), servers=0)


def test_utilization_and_backlog():
    sim = Simulator()
    st = FifoStation(sim, servers=2)

    def proc(sim, st):
        st.reserve(4.0)
        st.reserve(4.0)
        st.reserve(4.0)  # queued: [4, 8] on one server
        assert st.backlog() == pytest.approx(8.0)
        yield sim.timeout(8.0)
        assert st.backlog() == 0.0

    sim.process(proc(sim, st))
    sim.run()
    # 12 service-seconds over 8 elapsed on 2 servers = 0.75
    assert st.utilization() == pytest.approx(0.75)


@pytest.mark.parametrize("observed", [True, False])
def test_utilization_needs_an_observed_station(observed):
    """Busy time is booked only while the simulator is observed, so an
    unobserved station's utilization is an error naming the flag, not a
    silent 0.0."""
    sim = Simulator()
    sim.track_station_stats = observed
    st = FifoStation(sim, name="nic")
    sim.at(st.run(3.0))
    sim.run(until=4.0)
    if observed:
        assert st.utilization() == pytest.approx(0.75)
    else:
        with pytest.raises(RuntimeError, match="track_station_stats"):
            st.utilization()
        assert st.backlog() == 0.0 and st._free == [3.0]


def test_wait_stats_accumulate():
    sim = Simulator()
    st = FifoStation(sim)
    st.reserve(2.0)  # wait 0
    st.reserve(2.0)  # wait 2
    st.reserve(2.0)  # wait 4
    assert st.wait_stats.n == 3
    assert st.wait_stats.mean == pytest.approx(2.0)
    assert st.wait_stats.max == pytest.approx(4.0)


def test_throughput_saturation_matches_capacity():
    """N jobs of service s through c servers must take N*s/c when
    saturated — the property the server-contention figures rely on."""
    sim = Simulator()
    st = FifoStation(sim, servers=4)
    n, s = 100, 0.25
    last_end = 0.0
    for _ in range(n):
        _, end = st.reserve(s)
        last_end = max(last_end, end)
    assert last_end == pytest.approx(n * s / 4)


# --------------------------------------------------------------------------- #
# a multi-server visit is one heapreplace: same free times as pop-then-push
# --------------------------------------------------------------------------- #
class _PopPushStation:
    """The earliest-free-server rule written as heappop + heappush: the
    reference ``reserve``/``run`` (one ``heapreplace``) are held to."""

    def __init__(self, servers):
        self.free = [0.0] * servers
        self.latest_free = 0.0
        self.busy_time = 0.0
        self.jobs = 0
        self.waits = []

    def reserve(self, service, arrival):
        free = heappop(self.free)
        start = free if free > arrival else arrival
        end = start + service
        heappush(self.free, end)
        self.latest_free = max(self.latest_free, end)
        self.busy_time += service
        self.jobs += 1
        self.waits.append(start - arrival)
        return start, end


visits = strategies.lists(
    strategies.tuples(
        strategies.sampled_from(("reserve", "run")),
        strategies.sampled_from((0.0, 0.25, 1.0, 1.5, 7.0)),  # service
        strategies.sampled_from((0.0, 0.0, 0.5, 3.0)),  # arrival, seconds past now
        strategies.sampled_from((0.0, 0.0, 0.25, 2.0)),  # clock advance before the visit
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(strategies.sampled_from((1, 2, 3, 8)), visits)
def test_heapreplace_visits_match_pop_then_push(servers, sequence):
    sim = Simulator()
    station = FifoStation(sim, servers=servers)
    ref = _PopPushStation(servers)
    for kind, service, ahead, advance in sequence:
        sim.run(until=sim.now + advance)
        now = sim.now
        if kind == "reserve":
            assert station.reserve(service, arrival=now + ahead) == ref.reserve(service, now + ahead)
        else:
            _, end = ref.reserve(service, now)
            assert station.run(service) == now + (end - now)
        assert sorted(station._free) == sorted(ref.free)
        assert station._free[0] == min(ref.free)
        assert max(station._free) == ref.latest_free
        assert (station.busy_time, station.jobs) == (ref.busy_time, ref.jobs)
    assert station.wait_stats.n == len(ref.waits)
    assert station.wait_stats.total == sum(ref.waits)
