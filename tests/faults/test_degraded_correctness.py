"""Degraded-mode correctness: dead MCDs must never change results.

The acceptance bar for the fault layer — with 0, half, or all MCDs
down, every file read and stat must return exactly what the cache-off
baseline returns, with no errors surfacing to the application.
"""

from repro.harness.chaos import _dead_mcd_job
from repro.util.units import KiB, MiB

#: A scaled-down chaos parameter set (seconds of wall time, not tens).
P = dict(
    num_clients=2,
    num_mcds=2,
    files_per_client=2,
    file_size=8 * KiB,
    record_size=2 * KiB,
    rounds=6,
    mcd_memory=8 * MiB,
    cooldown=2e-3,
    seed=0xC405,
)


def test_dead_mcds_never_change_contents_or_stats():
    baseline = _dead_mcd_job(P, 0, 0)
    assert baseline["errors"] == 0 and baseline["mismatches"] == 0
    for dead in (0, 1, 2):  # none, half, all
        out = _dead_mcd_job(P, P["num_mcds"], dead)
        assert out["fingerprint"] == baseline["fingerprint"], f"dead={dead}"
        assert out["errors"] == 0, f"dead={dead}"
        assert out["mismatches"] == 0, f"dead={dead}"


def test_hit_rate_collapses_only_when_all_mcds_die():
    healthy = _dead_mcd_job(P, P["num_mcds"], 0)
    all_dead = _dead_mcd_job(P, P["num_mcds"], P["num_mcds"])
    assert healthy["hit_rate"] > 0.5
    assert all_dead["hit_rate"] == 0.0
    # The degraded path costs more than the cache path but still works.
    assert all_dead["read_lat"] > healthy["read_lat"]
