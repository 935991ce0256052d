"""Exporters: Chrome trace validity, JSONL round-trip, determinism."""

import json

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.obs import Observability
from repro.obs.export import (
    chrome_trace_events,
    registry_jsonl_lines,
    render_tier_breakdown,
    tier_summaries,
    write_chrome_trace,
    write_metrics_jsonl,
)


def _traced_run():
    obs = Observability("t", trace=True)
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1), obs=obs)
    cl = tb.clients

    def wl(c, path):
        fd = yield from c.create(path)
        yield from c.write(fd, 0, 8192)
        yield from c.read(fd, 0, 4096)
        yield from c.stat(path)
        yield from c.stat(path)
        yield from c.close(fd)

    for i, c in enumerate(cl):
        tb.sim.process(wl(c, f"/f{i}"), name=f"wl{i}")
    tb.sim.run()
    return tb


def test_chrome_trace_events_are_valid(tmp_path):
    tb = _traced_run()
    events = chrome_trace_events(tb.obs.tracer)
    assert events, "expected spans from a traced run"
    for e in events:
        assert e["ph"] in ("X", "M")
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["tid"], int)
            assert e["cat"] in ("client", "network", "mcd", "server", "disk")
        else:
            assert e["name"] == "thread_name"
    # Metadata names every tid used by a span.
    meta_tids = {e["tid"] for e in events if e["ph"] == "M"}
    span_tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert span_tids <= meta_tids

    path = tmp_path / "trace.json"
    n = write_chrome_trace(tb.obs.tracer, str(path))
    assert n == len(events)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(events, sort_keys=True)
    )


def test_same_seed_runs_export_identical_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    m1, m2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for trace_path, metrics_path in ((p1, m1), (p2, m2)):
        tb = _traced_run()
        write_chrome_trace(tb.obs.tracer, str(trace_path))
        write_metrics_jsonl(tb.snapshot_metrics(), str(metrics_path))
    assert p1.read_bytes() == p2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()


def test_metrics_jsonl_round_trip():
    tb = _traced_run()
    reg = tb.snapshot_metrics()
    lines = registry_jsonl_lines(reg)
    parsed = {d["component"]: d for d in map(json.loads, lines)}
    assert any(c.startswith("cmcache.") for c in parsed)
    assert any(c.startswith("smcache.") for c in parsed)
    assert parsed["mcd"]["counters"]["curr_items"] >= 1
    tiers = parsed["tiers"]["histograms"]
    for tier in ("client", "network", "mcd", "server", "disk"):
        assert {"p50", "p95", "p99", "n"} <= set(tiers[tier])


def test_tier_breakdown_table_lists_all_tiers():
    tb = _traced_run()
    table = render_tier_breakdown(tb.obs.tracer)
    for label in ("client CPU", "network", "MCD", "server", "disk"):
        assert label in table
    summaries = tier_summaries(tb.obs.tracer)
    assert list(summaries) == ["client", "network", "mcd", "server", "disk"]
    # Shares decompose the whole: totals are positive and finite.
    assert all(s["total"] > 0 for s in summaries.values())


def test_render_tier_breakdown_empty_tracer():
    obs = Observability("t", trace=True)
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1), obs=obs)
    assert "no spans recorded" in render_tier_breakdown(tb.obs.tracer)


def test_write_oplog_jsonl_round_trip(tmp_path):
    import repro.obs.export as export

    obs = Observability("t", oplog=True)
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1), obs=obs)

    def wl(c, path):
        fd = yield from c.create(path)
        yield from c.write(fd, 0, 8192)
        yield from c.read(fd, 0, 4096)

    for i, c in enumerate(tb.clients):
        tb.sim.process(wl(c, f"/f{i}"), name=f"wl{i}")
    tb.sim.run()

    path = tmp_path / "oplog.jsonl"
    n = export.write_oplog_jsonl(tb.obs.oplog, str(path))
    assert n == len(tb.obs.oplog) == 6
    lines = path.read_text().splitlines()
    assert lines == list(tb.obs.oplog.jsonl_lines())
    for d in map(json.loads, lines):
        assert d["op"].startswith("client.")
        assert d["duration"] >= 0


def test_metrics_fingerprint_is_merge_order_invariant():
    """The --jobs N merge folds worker registries in any completion
    order; the fingerprint must not depend on it."""
    from repro.obs.export import metrics_fingerprint
    from repro.obs.registry import MetricsRegistry

    def worker(seed):
        reg = MetricsRegistry("w")
        c = reg.component("cmcache.client0")
        c.inc("hits", seed)
        c.observe("lat", seed * 1e-4)
        c.histogram("lat").add(seed * 1e-4)
        reg.component("mcd").inc("gets", 2 * seed)
        return reg

    def merged(order):
        total = MetricsRegistry("t")
        for seed in order:
            total.merge(worker(seed))
        return metrics_fingerprint(total)

    assert merged([1, 2, 3]) == merged([3, 1, 2]) == merged([2, 3, 1])
    assert merged([1, 2, 3]) != merged([1, 2, 4])


def test_truncated_trace_export_warns_once(tmp_path, monkeypatch):
    import warnings

    import repro.obs.export as export

    obs = Observability("t", trace=True)
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1), obs=obs)
    tb.obs.tracer.limit = 3

    def wl(c, path):
        fd = yield from c.create(path)
        yield from c.write(fd, 0, 8192)
        yield from c.read(fd, 0, 4096)

    for i, c in enumerate(tb.clients):
        tb.sim.process(wl(c, f"/f{i}"), name=f"wl{i}")
    tb.sim.run()
    assert tb.obs.tracer.dropped > 0

    monkeypatch.setattr(export, "_dropped_warned", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        export.write_chrome_trace(tb.obs.tracer, str(tmp_path / "a.json"))
        export.write_chrome_trace(tb.obs.tracer, str(tmp_path / "b.json"))
    truncation = [w for w in caught if "truncated" in str(w.message)]
    assert len(truncation) == 1
    assert str(tb.obs.tracer.dropped) in str(truncation[0].message)
