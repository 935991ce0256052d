"""``Simulator.gather``: the fork-join that replaced ``process`` per
child + ``all_of`` on the op path.  It must be indistinguishable from
that pattern in everything the model can see — values, the instant the
parent resumes, the order shared stations are reserved in, who the
tracer thinks is running — and differ only in schedule entries.  A
strand that returns a ``Landing`` is held to one that sleeps until the
landing and then returns, on the same terms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ResilienceConfig, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.obs import Observability, OpLog
from repro.obs.trace import SimTracer
from repro.sim import FifoStation, Interrupt, Landing, SimulationError, Simulator


def _fork(sim, kind, children):
    """The two spellings of one fork-join; both evaluate to the list of
    child return values when yielded."""
    if kind == "gather":
        return sim.gather(children, name="child")
    return sim.all_of([sim.process(c, name="child") for c in children])


def _values(kind, joined):
    return joined if kind == "gather" else list(joined.values())


# --------------------------------------------------------------------------- #
# equivalence with process + all_of
# --------------------------------------------------------------------------- #
#: One child = the delays it sleeps, each followed by a visit to the
#: shared station.  Delays come from a tiny grid so that children (and
#: the parent's own follow-up visit) collide on the same instants.
_delays = st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0]), max_size=4)


def _fork_join_run(kind, spec):
    sim = Simulator()
    station = FifoStation(sim, name="shared")
    log = []

    def child(tag, delays):
        for d in delays:
            yield sim.timeout(d)
            log.append((tag, sim.now))
            yield station.run(0.5)
        return tag * 10

    out = {}

    def parent():
        # Resumed by an ordinary event, as every op-path fan-out is.
        yield sim.timeout(1.0)
        joined = yield _fork(sim, kind, [child(i, d) for i, d in enumerate(spec)])
        out["values"] = _values(kind, joined)
        out["joined_at"] = sim.now
        log.append(("parent", sim.now))
        yield station.run(0.5)
        out["done_at"] = sim.now

    sim.process(parent())
    sim.run()
    return out, log, sim._seq


@settings(max_examples=200, deadline=None)
@given(st.lists(_delays, max_size=5))
def test_gather_matches_process_all_of(spec):
    new, new_log, new_entries = _fork_join_run("gather", spec)
    old, old_log, old_entries = _fork_join_run("all_of", spec)
    assert new == old
    assert new_log == old_log
    assert new["values"] == [i * 10 for i in range(len(spec))]
    # One entry for the join instead of Initialize + completion per
    # child and one for the AllOf.
    assert old_entries - new_entries == 2 * len(spec)


# --------------------------------------------------------------------------- #
# landed strands: a return value due later, without the wake-up
# --------------------------------------------------------------------------- #
def _landing_run(spec, landed):
    """Each child visits the shared station like ``_fork_join_run``'s,
    then books a last visit and either sleeps until it ends and returns
    (``landed=False``) or, where its spec says so, returns a
    :class:`Landing` of its value at that end."""
    sim = Simulator()
    station = FifoStation(sim, name="shared")
    log = []

    def child(tag, delays, last, lands):
        for d in delays:
            yield sim.timeout(d)
            log.append((tag, sim.now, station.run(0.5)))
            yield log[-1][2]
        at = station.run(last)
        log.append((tag, "last", sim.now, at))
        if landed and lands:
            return Landing(tag * 10, at)
        yield at
        return tag * 10

    out = {}

    def parent():
        yield sim.timeout(1.0)
        joined = yield sim.gather(
            [child(i, *c) for i, c in enumerate(spec)], name="child"
        )
        out["values"] = joined
        out["joined_at"] = sim.now
        log.append(("parent", sim.now))
        yield station.run(0.5)
        out["done_at"] = sim.now

    sim.process(parent())
    sim.run()
    return out, log, (station.busy_time, station.jobs), sim._seq


_landing_child = st.tuples(_delays, st.sampled_from([0.0, 0.5, 2.0]), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(_landing_child, max_size=5))
def test_landed_strands_match_waiting_ones_one_entry_cheaper(spec):
    new, new_log, new_station, new_entries = _landing_run(spec, landed=True)
    old, old_log, old_station, old_entries = _landing_run(spec, landed=False)
    assert new == old
    assert new_log == old_log
    assert new_station == old_station
    assert new["values"] == [i * 10 for i in range(len(spec))]
    assert old_entries - new_entries == sum(lands for *_, lands in spec)


def test_a_landing_at_or_before_now_is_a_plain_return():
    sim = Simulator()
    seen = []

    def past(v, back):
        return Landing(v, sim.now - back)
        yield  # pragma: no cover - makes this a generator

    def parent():
        yield sim.timeout(2.0)
        before = sim._seq
        got = yield sim.gather([past(1, 1.0), past(2, 0.0), past(3, 2.0)])
        seen.append((got, sim.now, sim._seq - before))

    sim.process(parent())
    sim.run()
    # The join's one entry, at now: what three plain returns cost.
    assert seen == [([1, 2, 3], 2.0, 1)]


def test_a_landing_later_than_a_plain_return_sets_the_join_instant():
    sim = Simulator()
    seen = []

    def lands(v, at):
        return Landing(v, at)
        yield  # pragma: no cover

    def waits(v, delay):
        yield sim.now + delay
        return v

    def parent():
        yield sim.timeout(1.0)
        got = yield sim.gather([lands("a", 4.0), waits("b", 1.0), lands("c", 3.0)])
        seen.append((got, sim.now))

    sim.process(parent())
    sim.run()
    assert seen == [(["a", "b", "c"], 4.0)]


@pytest.mark.parametrize("landing_at", [5.0, 2.0])
def test_a_strand_that_raises_after_another_landed_fails_the_join_then(landing_at):
    sim = Simulator()
    trail = []

    def lands():
        return Landing("landed", landing_at)
        yield  # pragma: no cover

    def boom():
        yield sim.timeout(3.0)
        raise ValueError("late")

    def parent():
        try:
            yield sim.gather([lands(), boom()])
        except ValueError as e:
            trail.append(("caught", str(e), sim.now))

    sim.process(parent())
    sim.run()
    # The failure instant, whether the landing is still ahead or passed.
    assert trail == [("caught", "late", 3.0)]


def test_empty_gather_resumes_at_the_same_instant():
    sim = Simulator()
    seen = []

    def parent():
        yield sim.timeout(2.0)
        before = sim._seq
        got = yield sim.gather([])
        seen.append((got, sim.now, sim._seq - before))

    sim.process(parent())
    sim.run()
    assert seen == [([], 2.0, 1)]


def test_children_that_never_wait_still_join_through_the_scheduler():
    sim = Simulator()
    order = []

    def instant(v):
        order.append(("child", v))
        return v
        yield  # pragma: no cover - makes this a generator

    def parent():
        yield sim.timeout(1.0)
        before = sim._seq
        join = sim.gather([instant(1), instant(2), instant(3)])
        # The children ran inside the call, in order, before we yield.
        order.append(("forked", sim._seq - before))
        assert join.triggered and not join.processed
        got = yield join
        order.append(("joined", got, sim.now, sim._seq - before))

    sim.process(parent())
    sim.run()
    assert order == [
        ("child", 1), ("child", 2), ("child", 3),
        ("forked", 1),
        ("joined", [1, 2, 3], 1.0, 1),
    ]


def test_gather_rejects_a_non_generator():
    sim = Simulator()
    seen = []

    def parent():
        me = sim.active_process
        with pytest.raises(SimulationError):
            sim.gather([lambda: None])
        seen.append(sim.active_process is me)
        yield sim.timeout(1.0)

    sim.process(parent())
    sim.run()
    assert seen == [True]


# --------------------------------------------------------------------------- #
# failure, interruption, nesting
# --------------------------------------------------------------------------- #
def test_first_failure_fails_the_join_later_ones_are_dropped_survivors_run():
    sim = Simulator()
    trail = []

    def ok(delay, tag):
        yield sim.timeout(delay)
        trail.append((tag, sim.now))
        return tag

    def boom(delay, msg):
        yield sim.timeout(delay)
        raise ValueError(msg)

    def parent():
        try:
            yield sim.gather([ok(5.0, "slow"), boom(1.0, "first"), boom(2.0, "second"), ok(0.5, "fast")])
        except ValueError as e:
            trail.append(("caught", str(e), sim.now))
        yield sim.timeout(10.0)
        trail.append(("parent-done", sim.now))

    sim.process(parent())
    sim.run()  # the second failure must not surface from the run loop
    assert trail == [
        ("fast", 0.5),
        ("caught", "first", 1.0),
        ("slow", 5.0),
        ("parent-done", 11.0),
    ]


def test_failure_during_the_eager_start_still_starts_the_rest():
    sim = Simulator()
    started = []

    def boom():
        raise KeyError("early")
        yield  # pragma: no cover

    def late(tag):
        started.append(tag)
        yield sim.timeout(1.0)
        started.append((tag, "done"))

    def parent():
        with pytest.raises(KeyError):
            yield sim.gather([boom(), late("a"), late("b")])
        started.append(("caught", sim.now))

    sim.process(parent())
    sim.run()
    assert started == ["a", "b", ("caught", 0.0), ("a", "done"), ("b", "done")]


def test_interrupting_a_parent_parked_on_a_join():
    sim = Simulator()
    trail = []

    def child(tag):
        yield sim.timeout(4.0)
        trail.append((tag, sim.now))

    def parent():
        try:
            yield sim.gather([child("a"), child("b")])
            trail.append("joined")
        except Interrupt as i:
            trail.append(("interrupted", i.cause, sim.now))
        yield sim.timeout(10.0)
        trail.append(("parent-done", sim.now))

    def attacker(victim):
        yield sim.timeout(1.0)
        victim.interrupt("stop")

    p = sim.process(parent())
    sim.process(attacker(p))
    sim.run()
    # The children finish on their own; the join firing afterwards does
    # not resume the parent a second time.
    assert trail == [
        ("interrupted", "stop", 1.0),
        ("a", 4.0), ("b", 4.0),
        ("parent-done", 11.0),
    ]


def test_nested_joins_and_active_process():
    sim = Simulator()
    who = {}

    def leaf(v, delay):
        yield sim.timeout(delay)
        return v

    def mid(tag):
        me = sim.active_process
        got = yield sim.gather([leaf(tag + "1", 1.0), leaf(tag + "2", 2.0)])
        who[tag] = (me, sim.active_process)
        return got

    def parent():
        yield sim.timeout(1.0)
        me = sim.active_process
        join = sim.gather([mid("x"), mid("y")])
        who["parent"] = (me, sim.active_process)
        got = yield join
        return got, sim.now

    p = sim.process(parent())
    sim.run()
    assert p.value == ([["x1", "x2"], ["y1", "y2"]], 3.0)
    # Forking hands the active process back; a strand is the active
    # process while it runs, before and after its own fork.
    assert who["parent"] == (p, p)
    for tag in ("x", "y"):
        before, after = who[tag]
        assert before is after and before is not p
        assert before.parent is p and before.name == "gather"


# --------------------------------------------------------------------------- #
# what the tracer needs from a strand
# --------------------------------------------------------------------------- #
def _traced_fork(kind):
    sim = Simulator()
    tracer = SimTracer(sim, oplog=OpLog())

    def child(i):
        with tracer.span("mcd", f"child{i}"):
            yield sim.timeout(1.0 + i)
            tracer.op_count("child_events")

    def op():
        yield sim.timeout(1.0)
        with tracer.span("client", "client.op"):
            with tracer.span("mcd", "fanout"):
                yield _fork(sim, kind, [child(i) for i in range(3)])

    sim.process(op(), name="op")
    sim.run()
    spans = [(s.name, s.tier, s.tid, s.start, s.end, s.child_time) for s in tracer.spans]
    return spans, list(tracer.oplog.jsonl_lines()), tracer.track_names(), tracer.oplog


def test_strand_spans_and_annotations_attribute_like_processes():
    spans, records, tracks, oplog = _traced_fork("gather")
    old_spans, old_records, old_tracks, _ = _traced_fork("all_of")
    assert spans == old_spans
    assert records == old_records
    assert tracks == old_tracks
    # Children's annotations reached the spawning op through `parent`.
    assert oplog.orphan_annotations == 0
    (rec,) = oplog.records
    assert rec.counts == {"child_events": 3}


def test_replicated_set_oplog_counts_with_a_dead_replica():
    """A replicated push fans out through ``MemcacheClient._fanout``;
    the per-replica legs run as strands and what they count (ejections,
    skipped servers) must land on the client op that caused the push —
    the numbers below are what the ``process``-per-leg form recorded."""
    obs = Observability("t", oplog=True)
    cfg = TestbedConfig(
        num_clients=1,
        num_mcds=3,
        imca=IMCaConfig(replicas=2),
        resilience=ResilienceConfig(eject_after=1, mcd_retries=0),
    )
    tb = build_gluster_testbed(cfg, obs=obs)

    def wl(c):
        fd = yield from c.create("/f")
        tb.mcds[0].kill()
        yield from c.write(fd, 0, 8192)
        yield from c.write(fd, 8192, 8192)
        yield from c.close(fd)

    tb.sim.process(wl(tb.clients[0]), name="wl")
    tb.sim.run()
    oplog = tb.obs.oplog
    assert oplog.orphan_annotations == 0
    writes = [r.counts for r in oplog.records if r.op == "client.write"]
    assert writes == [
        {"ejected_skips": 1, "mcd_ejections": 1, "server_fops": 1},
        {"ejected_skips": 2, "server_fops": 1},
    ]
