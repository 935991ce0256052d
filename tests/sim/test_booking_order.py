"""How much a visit booked ahead of its arrival distorts ``FifoStation``.

``FifoStation`` books each visit, when it is *booked*, on the server
that is earliest free then.  A visit booked ahead of its arrival
therefore outranks every visit booked later, even one that arrives
first, and can hold a server idle until it arrives (ROADMAP item 1).
The reference here is an event-driven c-server FIFO — one process per
job, a ``Resource`` (``reference_station.py``) granting servers in
arrival order — fed the same jobs.

The mix is the one an MCD's CPU sees: an 8-core station about 90% busy,
half its visits booked ahead of their arrival (a request's receive
visit, booked when the request is sent) and half booked as they arrive
(the response's send visit, booked when the handler runs).  Booked at
arrival, the station *is* the reference.  Booked ahead, it overstates
the mean wait, and more the further ahead: the figures pinned below are
the ones DESIGN §7 ("The FUSE crossing runs ahead") cites for the
``stat_storm`` and ``write_mix`` moves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FifoStation, RandomStreams, Simulator
from tests.sim.reference_station import Resource

US = 1e-6
SERVERS = 8
SERVICE = 10 * US
BUSY = 0.9
JOBS = 20_000


def _jobs(seed=1):
    """``(arrival, booked_ahead)`` per job, in arrival order."""
    rng = RandomStreams(seed).stream("arrivals")
    gaps = rng.exponential(SERVICE / (BUSY * SERVERS), JOBS)
    ahead = rng.random(JOBS) < 0.5
    out, t = [], 0.0
    for gap, early in zip(gaps, ahead):
        t += float(gap)
        out.append((t, bool(early)))
    return out


def arrival_order_waits(jobs, servers=SERVERS, order=None):
    """The reference: each job arrives, queues FIFO for one of the
    station's *servers*, holds it for its service.  Jobs arriving at
    one instant queue in *order* (default: index order)."""
    sim = Simulator()
    pool = Resource(sim, servers)
    waits = [0.0] * len(jobs)

    def job(i, arrival):
        yield sim.timeout(arrival)
        req = pool.request()
        yield req
        waits[i] = sim.now - arrival
        yield sim.timeout(SERVICE)
        pool.release(req)

    for i in range(len(jobs)) if order is None else order:
        sim.process(job(i, jobs[i][0]))
    sim.run()
    return waits


def station_waits(jobs, look_ahead):
    """``FifoStation`` fed the jobs in booking order: a job booked ahead
    is booked *look_ahead* before it arrives, the rest as they arrive."""
    station = FifoStation(Simulator(), SERVERS)
    booked_at = [arrival - (look_ahead if early else 0.0) for arrival, early in jobs]
    waits = [0.0] * len(jobs)
    for i in sorted(range(len(jobs)), key=lambda i: (booked_at[i], i)):
        arrival = jobs[i][0]
        start, _ = station.reserve(SERVICE, arrival=arrival)
        waits[i] = start - arrival
    return waits


def _mean(xs):
    return sum(xs) / len(xs)


@pytest.fixture(scope="module")
def reference():
    jobs = _jobs()
    return jobs, arrival_order_waits(jobs)


def test_booked_at_arrival_the_station_is_the_arrival_order_fifo(reference):
    jobs, want = reference
    got = station_waits(jobs, 0.0)
    assert got == pytest.approx(want, abs=1e-15)
    # About 90% busy: the reference queues, so equality is not vacuous.
    assert 0.5 * SERVICE < _mean(want) < SERVICE


@settings(max_examples=60, deadline=None)
@given(
    servers=st.integers(1, 4),
    gaps_us=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    data=st.data(),
)
def test_booked_at_arrival_any_tie_order_is_the_reference(servers, gaps_us, data):
    """The twin of the pinned case over small random mixes.  Whole-µs
    gaps, zero included, make same-instant arrivals and arrivals on a
    service end common.  Same-instant jobs are booked in any order, and
    the reference queues them in that same order; every job's wait
    must then match."""
    arrivals = [sum(gaps_us[: i + 1]) * US for i in range(len(gaps_us))]
    jobs = [(arrival, False) for arrival in arrivals]
    tie_rank = data.draw(st.permutations(range(len(jobs))))
    order = sorted(range(len(jobs)), key=lambda i: (arrivals[i], tie_rank[i]))
    station = FifoStation(Simulator(), servers)
    got = [0.0] * len(jobs)
    for i in order:
        start, _ = station.reserve(SERVICE, arrival=arrivals[i])
        got[i] = start - arrivals[i]
    assert got == pytest.approx(
        arrival_order_waits(jobs, servers, order), abs=1e-15
    )


#: Mean-wait error (station - reference, µs) at a look-ahead (µs).
#: 7 → 25 µs is the 18 µs of a FUSE crossing added to a request's
#: look-ahead.
ERROR_US = {7: 1.690, 25: 10.643}


@pytest.mark.parametrize("look_ahead_us", sorted(ERROR_US))
def test_booked_ahead_the_station_overstates_the_mean_wait(reference, look_ahead_us):
    jobs, want = reference
    got = station_waits(jobs, look_ahead_us * US)
    error_us = (_mean(got) - _mean(want)) / US
    assert error_us == pytest.approx(ERROR_US[look_ahead_us], abs=0.001)
    # Nothing is lost or invented: the same work, served later.
    assert min(got) >= 0.0
