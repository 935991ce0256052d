"""MetricsRegistry / ComponentMetrics: instruments and snapshots."""

import json

import pytest

from repro.obs.registry import ComponentMetrics, MetricsRegistry, merged_counters
from repro.util.stats import Counter, Histogram


def test_component_get_or_create_is_stable():
    reg = MetricsRegistry()
    a = reg.component("cmcache.client0")
    assert reg.component("cmcache.client0") is a
    assert reg.component("cmcache.client1") is not a


def test_snapshot_includes_histogram_summaries():
    comp = ComponentMetrics("tiers")
    comp.histograms["network"] = hist = Histogram()
    for v in (0.001, 0.002, 0.004):
        hist.add(v)
    snap = comp.snapshot()
    h = snap["histograms"]["network"]
    assert h["n"] == 3
    assert {"p50", "p95", "p99", "mean", "max"} <= set(h)
    assert h["max"] == pytest.approx(0.004)
    json.dumps(snap)  # JSON-safe: only plain containers and scalars


def test_merged_counters_skips_none():
    a, b = Counter(), Counter()
    a.inc("hits", 2)
    b.inc("hits", 3)
    b.inc("misses")
    assert merged_counters([a, None, b]) == {"hits": 5, "misses": 1}
    assert merged_counters([]) == {}
