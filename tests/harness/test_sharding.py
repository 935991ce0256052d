"""Tests for time-windowed sharding: split, merge, and determinism."""

import pytest

from repro.harness.parallel import job_pool
from repro.harness.sharding import (
    ShardSpec,
    TimeWindow,
    merge_shard_metrics,
    plan_shards,
    run_sharded,
)
from repro.sim import Simulator


# Module-level so the spec survives pickling into pool workers.
def _count_job(spec, step):
    """Simulate the shard's clients: one timeout per client id, stamped
    with the shard's window."""
    sim = Simulator()
    for gid in range(spec.client_lo, spec.client_hi):
        sim.timeout((gid % 7) * step)
    if spec.window_stop is None:
        sim.run()
    else:
        sim.run(until=spec.window_stop)
    return {"clients": spec.clients, "events": sim._seq, "mode": "count"}


def test_plan_shards_covers_range_deterministically():
    specs = plan_shards(10, 4)
    assert [(s.client_lo, s.client_hi) for s in specs] == [
        (0, 3), (3, 6), (6, 8), (8, 10),
    ]
    assert [s.index for s in specs] == [0, 1, 2, 3]
    assert all(s.num_shards == 4 for s in specs)
    assert sum(s.clients for s in specs) == 10
    # Re-planning yields the identical split.
    assert plan_shards(10, 4) == specs


def test_plan_shards_caps_at_population_and_validates():
    specs = plan_shards(3, 8)
    assert len(specs) == 3
    assert all(s.clients == 1 for s in specs)
    with pytest.raises(ValueError):
        plan_shards(0, 1)
    with pytest.raises(ValueError):
        plan_shards(4, 0)


def test_plan_shards_threads_the_window():
    win = TimeWindow(start=1.0, stop=5.0)
    specs = plan_shards(4, 2, win)
    assert all(s.window_start == 1.0 and s.window_stop == 5.0 for s in specs)
    with pytest.raises(ValueError):
        TimeWindow(start=2.0, stop=1.0)


def test_merge_sums_numbers_and_passes_through_agreeing_labels():
    merged = merge_shard_metrics(
        [
            {"ops": 3, "lat": 0.5, "mode": "storm", "ok": True},
            {"ops": 4, "lat": 0.25, "mode": "storm", "ok": True},
        ]
    )
    assert merged["ops"] == 7
    assert merged["lat"] == 0.75
    assert merged["mode"] == "storm"
    assert merged["ok"] is True  # bools pass through, never summed


def test_merge_rejects_disagreeing_labels():
    with pytest.raises(ValueError, match="disagree"):
        merge_shard_metrics([{"mode": "a"}, {"mode": "b"}])


def test_run_sharded_is_shard_count_invariant():
    """The merged totals must not depend on how the population is cut."""
    merged_by_shards = {
        n: run_sharded(_count_job, plan_shards(21, n), 1e-6) for n in (1, 2, 5)
    }
    base = merged_by_shards[1]
    assert base["clients"] == 21
    for n, merged in merged_by_shards.items():
        assert merged["clients"] == base["clients"]
        assert merged["events"] == base["events"]
        assert merged["shards"] == min(n, 21)
        assert len(merged["per_shard"]) == merged["shards"]


def test_run_sharded_identical_under_process_pool():
    inline = run_sharded(_count_job, plan_shards(12, 3), 1e-6)
    with job_pool(2):
        pooled = run_sharded(_count_job, plan_shards(12, 3), 1e-6)
    assert pooled == inline


def test_window_stop_halts_every_shard_at_the_same_instant():
    specs = plan_shards(14, 3, TimeWindow(stop=2e-6))
    merged = run_sharded(_count_job, specs, 1e-6)
    assert merged["clients"] == 14
    # Every shard scheduled its clients plus exactly one STOP entry at
    # the shared window boundary.
    assert merged["events"] == 14 + 3


def test_scale_storm_shards_merge_deterministically():
    """The bench's storm workload: group-aligned shards must retire the
    same ops and schedule the same events for any shard count."""
    from repro.bench.scale import GROUP_SIZE, OPS_PER_CLIENT, _storm_shard

    totals = []
    for shards in (1, 4):
        merged = run_sharded(_storm_shard, plan_shards(20, shards), False)
        totals.append((merged["clients"], merged["ops"], merged["events"]))
        assert merged["clients"] == 20 * GROUP_SIZE
        assert merged["ops"] == 20 * GROUP_SIZE * OPS_PER_CLIENT
    assert totals[0] == totals[1]
