"""A timed wait is a number: a process may yield a float, the absolute
time at which to resume it.

The contract is that such a wait is indistinguishable, from inside the
simulation, from ``yield sim.timeout(delay)``: same resume instants,
same ``_seq`` minted at the same point, same order among same-instant
wakes and events.  These tests hold a float-yielding program to its
timeout-yielding twin, then cover what only the float form has: the
wake-time check and the stale wake an interrupt leaves behind.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, SimulationError, Simulator

# Zero (same instant), values that tie with each other and with their
# own sums, one nine orders of magnitude further out.
DELAYS = (0.0, 1e-7, 1e-6, 2e-6, 3e-6, 0.5, 1e3)

#: ("sleep", d): the wait under test.  ("tick", d): a plain timeout in
#: both twins, so wakes share instants with real events.  ("fork", d):
#: a gather of two children that each sleep d (strands).
steps = st.tuples(st.sampled_from(("sleep", "sleep", "tick", "fork")), st.sampled_from(DELAYS))
programs = st.lists(st.lists(steps, min_size=1, max_size=8), min_size=1, max_size=6)


def _trace(program, as_float: bool):
    """Run *program*; every resume as (process, step, kind, now, seq,
    value received), then the final clock and seq."""
    sim = Simulator()
    log = []

    def sleep(delay):
        return sim.now + delay if as_float else sim.timeout(delay)

    def child(pid, index, delay):
        got = yield sleep(delay)
        log.append((pid, index, "child", sim.now, sim._seq, got))

    def proc(pid, plan):
        for index, (kind, delay) in enumerate(plan):
            if kind == "sleep":
                got = yield sleep(delay)
            elif kind == "tick":
                got = yield sim.timeout(delay)
            else:
                got = yield sim.gather(child(pid, index, delay) for _ in range(2))
            log.append((pid, index, kind, sim.now, sim._seq, got))

    for pid, plan in enumerate(program):
        sim.process(proc(pid, plan))
    sim.run()
    return log, sim.now, sim._seq


@settings(max_examples=150, deadline=None)
@given(programs)
def test_float_waits_replay_their_timeout_twin(program):
    assert _trace(program, as_float=True) == _trace(program, as_float=False)


def test_a_wait_costs_exactly_one_seq_minted_when_the_float_is_yielded():
    sim = Simulator()
    seen = []

    def proc():
        when = sim.now + 1.0  # computing a wake time schedules nothing
        seen.append(sim._seq)
        sim.timeout(5.0)  # takes the next seq, ahead of the wake's
        yield when
        seen.append(sim._seq)

    sim.process(proc())
    sim.run()
    # Initialize = 1; the timeout = 2; the wake = 3.
    assert seen == [1, 3]


def test_at_is_an_event_at_an_absolute_time():
    sim = Simulator(initial_time=0.1)
    fired = []
    ev = sim.at(0.30000000000000004)
    ev.callbacks.append(lambda e: fired.append((sim.now, e.value)))
    sim.run()
    assert fired == [(0.30000000000000004, None)]
    for bad in (0.2, math.nan, math.inf):
        with pytest.raises(ValueError):
            sim.at(bad)


# --------------------------------------------------------------------------- #
# the wake-time check
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_bad_wake_time_is_thrown_into_the_process(bad):
    sim = Simulator()
    caught = []
    resumed = []

    def proc():
        yield sim.now + 2.0
        seq = sim._seq
        try:
            # -1.0 stands for "one second ago".
            yield sim.now + bad if bad == -1.0 else bad
        except SimulationError as exc:
            # Thrown at once: nothing was scheduled, no time passed.
            caught.append((str(exc), sim.now, sim._seq - seq))
        # Having handled it, the process carries on like any other.
        yield sim.now + 1.0
        resumed.append(sim.now)

    sim.process(proc())
    sim.run()
    ((message, when, minted),) = caught
    assert "wake time" in message and (when, minted) == (2.0, 0)
    assert resumed == [3.0]


def test_unhandled_bad_wake_time_fails_the_process_and_the_clock_holds():
    sim = Simulator()

    def proc():
        yield sim.now + 5.0
        yield sim.now - 1.0

    p = sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()
    assert not p.ok and sim.now == 5.0 and sim.pending == 0


def test_only_a_float_is_a_wake_time():
    sim = Simulator()
    caught = []

    def proc():
        for bad in (1, True, None, "1.0"):
            try:
                yield bad
            except SimulationError as exc:
                caught.append(str(exc))

    sim.process(proc())
    sim.run()
    assert len(caught) == 4 and all("non-event" in c for c in caught)


# --------------------------------------------------------------------------- #
# interrupting a sleeper: the wake it leaves behind is stale
# --------------------------------------------------------------------------- #
def _interrupted_sleeper(after, as_float: bool):
    """A sleeper bound for t=10 is interrupted at t=1, then sleeps the
    delays in *after*.  Returns (resume log, final now, final seq)."""
    sim = Simulator()
    log = []

    def sleep(delay):
        return sim.now + delay if as_float else sim.timeout(delay)

    def sleeper():
        try:
            yield sleep(10.0)
            log.append(("woke", sim.now))
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))
        for delay in after:
            got = yield sleep(delay)
            log.append(("slept", sim.now, got))

    def interrupter(victim):
        yield sim.timeout(1.0)
        asleep.append(victim.target)
        victim.interrupt("up")

    asleep = []
    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert victim.ok
    if as_float:
        assert asleep == [None]  # a timed wait has no event to show
    return log, sim.now, sim._seq


@pytest.mark.parametrize(
    "after, slept",
    [
        pytest.param((), [], id="then-finish"),
        # Asleep until 3, then until 23: the stale wake at 10 pops while
        # the process sleeps on a *later* token.
        pytest.param((2.0, 20.0), [3.0, 23.0], id="sleep-again-earlier"),
        # Asleep until 16 when the stale wake at 10 pops.
        pytest.param((15.0,), [16.0], id="sleep-again-later"),
        # Back asleep to the very instant of the stale wake.
        pytest.param((9.0,), [10.0], id="sleep-again-same-instant"),
    ],
)
def test_stale_wake_never_resumes_an_interrupted_sleeper(after, slept):
    log, now, seq = _interrupted_sleeper(after, as_float=True)
    assert log == [("interrupted", 1.0, "up")] + [("slept", t, None) for t in slept]
    # The stale entry's time still passes, as an orphaned timeout's would.
    assert now == max([10.0] + slept)
    assert (log, now, seq) == _interrupted_sleeper(after, as_float=False)


def test_target_is_the_event_while_parked_on_one():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate

    p = sim.process(waiter())
    sim.step()  # Initialize
    assert p.target is gate
    gate.succeed()
    sim.run()
