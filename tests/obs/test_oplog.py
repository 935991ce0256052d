"""Per-op lifecycle records: capture, attribution, ring cap, export."""

import json

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.obs import Observability, OpLog
from repro.obs.export import metrics_fingerprint


def _oplogged_run(oplog_limit=None):
    obs = Observability("t", oplog=True)
    if oplog_limit:
        # The tracer takes the bundle's log when the builder binds it.
        obs.oplog = OpLog(oplog_limit)
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1), obs=obs)

    def wl(c, path):
        fd = yield from c.create(path)
        yield from c.write(fd, 0, 8192)
        yield from c.read(fd, 0, 4096)
        yield from c.read(fd, 0, 4096)
        yield from c.stat(path)
        yield from c.close(fd)

    for i, c in enumerate(tb.clients):
        tb.sim.process(wl(c, f"/f{i}"), name=f"wl{i}")
    tb.sim.run()
    return tb


def test_every_client_op_becomes_one_record():
    tb = _oplogged_run()
    oplog = tb.obs.oplog
    ops = [r.op for r in oplog.records]
    # 2 clients x (create, write, read, read, stat, close).
    assert len(ops) == 12
    assert oplog.total == 12
    assert oplog.dropped == 0
    assert oplog.orphan_annotations == 0
    for name in ("client.create", "client.write", "client.read", "client.stat"):
        assert ops.count(name) >= 2


def test_records_carry_identity_outcome_and_tiers():
    tb = _oplogged_run()
    reads = [r for r in tb.obs.oplog.records if r.op == "client.read"]
    assert len(reads) == 4
    for rec in reads:
        assert rec.client.startswith("client")
        assert rec.path in ("/f0", "/f1")
        assert rec.nbytes == 4096
        assert rec.end > rec.start
        assert rec.duration == rec.end - rec.start
        # Exactly one outcome tag per read.
        outcome = [t for t in rec.tags if t.startswith("read-")]
        assert len(outcome) == 1
        assert rec.degraded == ()  # no faults armed
    # The warm read-back hits MCD; its tiers decompose the duration.
    hit = [r for r in reads if "read-hit" in r.tags]
    assert hit
    for rec in hit:
        assert "client" in rec.tiers and "mcd" in rec.tiers
        assert sum(rec.tiers.values()) == pytest.approx(rec.duration)


def test_ring_cap_drops_oldest_and_counts():
    tb = _oplogged_run(oplog_limit=5)
    oplog = tb.obs.oplog
    assert len(oplog) == 5
    assert oplog.total == 12
    assert oplog.dropped == 7
    # The retained window is the most recent, in close order.
    ends = [r.end for r in oplog.records]
    assert ends == sorted(ends)
    with pytest.raises(ValueError):
        OpLog(0)


def test_degraded_set_snapshots_at_op_start():
    log = OpLog()
    rec = log.begin("client.read", 1.0)
    assert rec.degraded == ()
    log.degraded_mcds.add(2)
    log.degraded_mcds.add(0)
    later = log.begin("client.read", 2.0)
    assert later.degraded == (0, 2)
    log.degraded_mcds.discard(2)
    # Already-begun records keep their start-time snapshot.
    assert later.degraded == (0, 2)
    assert log.begin("client.read", 3.0).degraded == (0,)
    assert rec.degraded == ()


def test_monitors_fed_in_close_order():
    log = OpLog()
    seen = []

    class Probe:
        def observe(self, rec):
            seen.append(rec.end)

    log.monitors.append(Probe())
    for t in (1.0, 3.0, 2.0):  # close order, not start order
        log.finish(log.begin("client.read", 0.0), t)
    assert seen == [1.0, 3.0, 2.0]


def test_jsonl_round_trip_and_same_seed_identity():
    lines1 = list(_oplogged_run().obs.oplog.jsonl_lines())
    lines2 = list(_oplogged_run().obs.oplog.jsonl_lines())
    assert lines1 == lines2  # same-seed byte identity
    parsed = [json.loads(line) for line in lines1]
    assert len(parsed) == 12
    for d in parsed:
        assert set(d) == {
            "op", "client", "path", "bytes", "start", "end", "duration",
            "tiers", "tags", "counts", "degraded_mcds",
        }
        assert d["duration"] == pytest.approx(d["end"] - d["start"])


def test_oplog_off_runs_are_unchanged():
    """Disabled oplog: tracer.oplog is None and the sim is identical."""
    plain = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1))
    assert plain.obs.tracer.oplog is None

    def finish(tb):
        def wl(c, path):
            fd = yield from c.create(path)
            yield from c.write(fd, 0, 8192)
            yield from c.read(fd, 0, 4096)
            yield from c.stat(path)
        for i, c in enumerate(tb.clients):
            tb.sim.process(wl(c, f"/f{i}"), name=f"wl{i}")
        tb.sim.run()
        return tb.sim.now, metrics_fingerprint(tb.snapshot_metrics())

    obs = Observability("t", oplog=True)
    logged = build_gluster_testbed(
        TestbedConfig(num_clients=2, num_mcds=1), obs=obs
    )
    t_plain, _ = finish(plain)
    t_logged, _ = finish(logged)
    # Recording never schedules events or perturbs latencies.
    assert t_plain == t_logged


def test_orphan_annotations_are_counted_not_lost():
    obs = Observability("t", oplog=True)
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1), obs=obs)
    tracer = tb.obs.tracer
    # No op open anywhere: annotations fall through to the orphan count.
    tracer.op_tag("stray")
    tracer.op_count("stray", 3)
    tracer.op_set(path="/x")
    assert tb.obs.oplog.orphan_annotations == 3
    assert len(tb.obs.oplog) == 0


def test_snapshot_exposes_tracer_and_oplog_accounting():
    tb = _oplogged_run(oplog_limit=5)
    reg = tb.snapshot_metrics()
    trc = reg.component("tracer").counters
    assert trc["spans_recorded"] > 0
    assert trc["spans_dropped"] == tb.obs.tracer.dropped
    # Mirrors the tracer's semantics: recorded = retained, dropped
    # counts what the ring pushed out (total ever = sum of the two).
    olc = reg.component("oplog").counters
    assert olc["ops_recorded"] == 5
    assert olc["ops_dropped"] == 7
    assert olc["ops_recorded"] + olc["ops_dropped"] == tb.obs.oplog.total
    assert olc["orphan_annotations"] == 0
