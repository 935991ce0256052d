"""Tests for vectored station admission: reserve_batch / run_batch."""

import pytest

from repro.sim import Simulator
from repro.sim.station import FifoStation


def _twin_stations(servers):
    sim = Simulator()
    return (
        sim,
        FifoStation(sim, servers=servers, name="batch"),
        FifoStation(sim, servers=servers, name="scalar"),
    )


@pytest.mark.parametrize("servers", [1, 3])
def test_reserve_batch_matches_sequential_reserves(servers):
    """A batch reservation must book exactly the slots a sequence of
    scalar reserves would: same first start, same last end, same busy
    time and job count."""
    sim, batch, scalar = _twin_stations(servers)
    services = [3e-6, 1e-6, 2e-6, 5e-6, 1e-6]

    first_start, last_end = batch.reserve_batch(services)
    starts, ends = [], []
    for s in services:
        st, en = scalar.reserve(s)
        starts.append(st)
        ends.append(en)

    assert first_start == min(starts)
    assert last_end == max(ends)
    assert batch.busy_time == scalar.busy_time
    assert batch.jobs == scalar.jobs == len(services)
    assert batch.next_free() == scalar.next_free()
    assert batch.backlog() == scalar.backlog()


def test_reserve_batch_multi_server_end_excludes_idle_servers():
    """The batch end is the latest *batch* completion, not the latest
    free time of a server the batch never touched."""
    sim = Simulator()
    st = FifoStation(sim, servers=2)
    # Pin one server far into the future with a scalar reservation.
    st.reserve(100.0)
    # A one-visit batch uses the other (free) server only.
    first_start, last_end = st.reserve_batch([1.0])
    assert first_start == 0.0
    assert last_end == 1.0


def test_reserve_batch_respects_arrival_and_backlog():
    sim = Simulator()
    st = FifoStation(sim, servers=1)
    st.reserve(4e-6)  # backlog ahead of the batch
    first_start, last_end = st.reserve_batch([1e-6, 1e-6], arrival=1e-6)
    assert first_start == 4e-6  # waits behind the backlog
    assert last_end == 6e-6


def test_reserve_batch_empty_and_negative():
    sim = Simulator()
    st = FifoStation(sim, servers=1)
    assert st.reserve_batch([]) == (0.0, 0.0)
    assert st.jobs == 0
    for servers in (1, 2):
        stn = FifoStation(sim, servers=servers)
        with pytest.raises(ValueError):
            stn.reserve_batch([1e-6, -1e-6])


def test_run_batch_fires_once_at_last_completion():
    sim = Simulator()
    st = FifoStation(sim, servers=1)
    services = [2e-6, 3e-6, 1e-6]
    fired = []

    def proc():
        yield st.run_batch(services)
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [sum(services)]  # batch end is the aggregate slot's end
    # Process start + one batch completion + process exit: the burst
    # cost a single schedule entry, not one per visit.
    assert sim._seq == 3
    assert st.jobs == 3


def test_run_batch_wait_stats_record_burst_wait():
    sim = Simulator()
    st = FifoStation(sim, servers=1)
    st.reserve(5e-6)
    st.reserve_batch([1e-6, 1e-6])
    # Both visits record the burst's wait behind the backlog.
    assert st.wait_stats.n == 3
    # Waits recorded: 0 for the scalar reserve, then the burst's wait
    # once per visit.
    assert st.wait_stats.mean == pytest.approx((0.0 + 5e-6 + 5e-6) / 3)


def test_single_item_batch_is_equivalent_to_scalar():
    """A burst of one books exactly the scalar reservation: identical
    slot, busy time, job count, and wait sample."""
    sim, batch, scalar = _twin_stations(1)
    batch.reserve(4e-6)
    scalar.reserve(4e-6)
    assert batch.reserve_batch([2e-6]) == scalar.reserve(2e-6)
    assert batch.jobs == scalar.jobs == 2
    assert batch.busy_time == scalar.busy_time
    assert batch.wait_stats.n == scalar.wait_stats.n
    assert batch.wait_stats.mean == scalar.wait_stats.mean


def test_zero_cost_batch_services():
    """Zero-cost services are legal batch members: they book zero busy
    time and complete at the admission instant."""
    sim = Simulator()
    st = FifoStation(sim, servers=1)
    assert st.reserve_batch([0.0, 0.0, 0.0]) == (0.0, 0.0)
    assert st.jobs == 3
    assert st.busy_time == 0.0
    # Mixed zero/nonzero: the zeros add no busy time, the burst ends at
    # the aggregate of the real work.
    start, end = st.reserve_batch([0.0, 2e-6, 0.0])
    assert end == pytest.approx(start + 2e-6)
    fired = []

    def proc():
        yield st.run_batch([0.0, 0.0])
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [end]  # fires behind the existing backlog, no later


def test_batch_wait_stats_sample_count_is_conserved():
    """Under track_station_waits a burst records one wait sample per
    visit, so sample and job counts match the scalar twin even though
    the batch books the burst's shared admission wait."""
    sim, batch, scalar = _twin_stations(1)
    assert sim.track_station_waits  # the default
    backlog = 5e-6
    batch.reserve(backlog)
    scalar.reserve(backlog)
    batch.reserve_batch([1e-6, 2e-6, 3e-6])
    for s in (1e-6, 2e-6, 3e-6):
        scalar.reserve(s)
    assert batch.wait_stats.n == scalar.wait_stats.n == 4
    assert batch.jobs == scalar.jobs == 4
    assert batch.busy_time == pytest.approx(scalar.busy_time)


def test_untracked_batch_records_no_wait_stats():
    sim = Simulator()
    sim.track_station_waits = False
    st = FifoStation(sim, servers=1)
    st.reserve(5e-6)
    st.reserve_batch([1e-6, 1e-6])
    assert st.wait_stats.n == 0
    assert st.jobs == 3  # accounting still happens, only sampling is off
