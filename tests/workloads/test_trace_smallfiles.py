"""Tests for the trace-replay and small-files workloads."""

import numpy as np
import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.util import KiB
from repro.workloads import (
    TraceConfig,
    generate_trace,
    replay_trace,
    run_small_files,
)
from repro.workloads.trace import file_path, zipf_weights


# -- trace generation -------------------------------------------------------
def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(read_ratio=1.5)
    with pytest.raises(ValueError):
        TraceConfig(stat_ratio=-0.1)
    with pytest.raises(ValueError):
        TraceConfig(num_files=0)


def test_zipf_weights_normalised_and_skewed():
    w = zipf_weights(100, 0.99)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] > w[10] > w[99]
    # The head dominates: top-10 of 100 files carry a large share.
    assert w[:10].sum() > 0.4


def test_generate_trace_deterministic():
    cfg = TraceConfig(operations=200, seed=7)
    a = generate_trace(cfg)
    b = generate_trace(cfg)
    assert a == b
    c = generate_trace(TraceConfig(operations=200, seed=8))
    assert a != c


def test_generate_trace_respects_mix():
    cfg = TraceConfig(operations=3000, read_ratio=0.8, stat_ratio=0.25)
    ops = generate_trace(cfg)
    kinds = {"stat": 0, "read": 0, "write": 0}
    for op in ops:
        kinds[op.kind] += 1
    assert kinds["stat"] / len(ops) == pytest.approx(0.25, abs=0.05)
    non_stat = kinds["read"] + kinds["write"]
    assert kinds["read"] / non_stat == pytest.approx(0.8, abs=0.05)


def test_generate_trace_popularity_skew():
    cfg = TraceConfig(operations=3000, num_files=64, zipf_s=1.1)
    ops = generate_trace(cfg)
    counts = np.zeros(64)
    for op in ops:
        counts[op.file_index] += 1
    assert counts.max() > 5 * np.median(counts[counts > 0])


def test_trace_ops_within_file_bounds():
    cfg = TraceConfig(operations=500)
    for op in generate_trace(cfg):
        assert op.size >= 1
        assert op.offset % cfg.record_size == 0


# -- trace replay -------------------------------------------------------------------
def test_replay_trace_runs_and_measures():
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1))
    cfg = TraceConfig(operations=150, num_files=24)
    res = replay_trace(tb.sim, tb.clients, cfg)
    assert res.ops == 150
    assert res.wall_time > 0
    total = res.read_latency.n + res.write_latency.n + res.stat_latency.n
    assert total == 150
    assert res.ops_per_second > 0


def test_replay_warmup_improves_imca_hit_rate():
    def hit_rate(warmup):
        tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1))
        cfg = TraceConfig(operations=200, num_files=24)
        replay_trace(tb.sim, tb.clients, cfg, warmup=warmup)
        cm = tb.cm_stats()
        hits = cm.get("read_hits", 0)
        misses = cm.get("read_misses", 0)
        return hits / max(1, hits + misses)

    assert hit_rate(True) > hit_rate(False)


def test_replay_trace_file_paths_spread_dirs():
    assert file_path(0) != file_path(32)
    assert file_path(1).startswith("/trace/d01/")


# -- small files ----------------------------------------------------------------------
def test_small_files_basic():
    tb = build_gluster_testbed(TestbedConfig(num_clients=2))
    res = run_small_files(tb.sim, tb.clients, num_files=20, file_size=4 * KiB)
    assert res.per_file_latency.n == 40  # every client, every file
    assert res.wall_time > 0
    assert res.files_per_second > 0


def test_small_files_imca_beats_nocache():
    def latency(num_mcds):
        tb = build_gluster_testbed(
            TestbedConfig(num_clients=4, num_mcds=num_mcds)
        )
        res = run_small_files(tb.sim, tb.clients, num_files=24, file_size=4 * KiB)
        return res.per_file_latency.mean

    assert latency(2) < latency(0)


def test_small_files_subblock_sizes_cacheable():
    """1 KiB files fit inside one 2 KiB block: the stat-validated short
    block protocol must still serve them from the MCDs."""
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1))
    res = run_small_files(tb.sim, tb.clients, num_files=16, file_size=1 * KiB)
    cm = tb.cm_stats()
    assert cm.get("read_hits", 0) > 0
    # After the warm pass, the timed phase should be nearly all hits.
    assert cm.get("read_hits", 0) > cm.get("read_misses", 0)
