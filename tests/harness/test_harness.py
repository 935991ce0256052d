"""Tests for the experiment harness: registry, reports, smoke runs."""

import pytest

from repro.harness import (
    all_experiments,
    get,
    params_for,
    pct_change,
    render_series_table,
    render_table,
)
from repro.harness.experiment import SCALES, ExperimentResult
from repro.harness.params import PARAMS
from repro.util.units import KiB

EXPECTED_FIGURES = {
    "fig1",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
}
EXPECTED_ABLATIONS = {
    "ablation-blocksize",
    "ablation-hashing",
    "ablation-threading",
    "ablation-failures",
    "ablation-transport",
    "ablation-client-cache",
    "ablation-elasticity",
    "motivation-smallfiles",
    "motivation-trace",
}


def test_registry_covers_every_figure_and_ablation():
    ids = {e.id for e in all_experiments()}
    assert EXPECTED_FIGURES <= ids
    assert EXPECTED_ABLATIONS <= ids


def test_fault_and_replication_experiments_registered():
    """Registration and params coverage for chaos and hotspot (the
    smoke sweep below runs them like every other experiment)."""
    ids = {e.id for e in all_experiments()}
    assert {"chaos", "hotspot"} <= ids
    for scale in ("smoke", "default", "paper"):
        p = params_for("hotspot", scale)
        assert p["replica_counts"][0] == 1  # the legacy baseline pass
        assert max(p["replica_counts"]) <= p["num_mcds"]
        assert any(s >= 0.99 for s in p["skews"])


def test_readpath_experiment_registered():
    """Registration and params coverage for readpath."""
    ids = {e.id for e in all_experiments()}
    assert "readpath" in ids
    for scale in ("smoke", "default", "paper"):
        p = params_for("readpath", scale)
        assert p["hit_ratios"] and all(0.0 < h < 1.0 for h in p["hit_ratios"])
        assert p["ra_depths"][0] == 0  # the no-readahead baseline pass
        assert p["hot_sizes"][0] == 0  # the hot-cache-off baseline pass
        assert p["ft_blocks"] * 2 * KiB <= p["mcd_memory"]


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("fig99")


def test_params_all_scales_defined():
    for exp in PARAMS:
        for scale in SCALES:
            p = params_for(exp, scale)
            assert p
    with pytest.raises(KeyError):
        params_for("fig5", "galactic")
    with pytest.raises(KeyError):
        params_for("nope", "smoke")


def test_render_table_alignment():
    rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": None}]
    out = render_table(rows, [("a", "A", str), ("b", "B", None)])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("A")
    assert "-" in lines[1]
    assert "22" in lines[3]
    assert lines[3].rstrip().endswith("-")  # None renders as '-'


def test_render_series_table():
    out = render_series_table("x", [1, 2], {"s": [0.001, 0.002]})
    assert "1.00 ms" in out and "2.00 ms" in out
    # Each series renders in its own unit; seconds only by default.
    out = render_series_table(
        "x",
        [1, 2],
        {"bw": [632460247.806, 2.5e6], "hit rate": [1 / 3, 1.0], "stale": [11.0, 0.0]},
        {"bw": "B/s", "hit rate": "ratio", "stale": "count"},
    )
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows[0] == ["1", "632.5", "MB/s", "0.333", "11"]
    assert rows[1] == ["2", "2.5", "MB/s", "1.000", "0"]
    assert " s " not in out and "ms" not in out


def test_pct_change():
    assert pct_change(100, 25) == 75.0
    assert pct_change(0, 5) == 0.0
    assert pct_change(50, 100) == -100.0


@pytest.mark.parametrize("exp_id", [e.id for e in all_experiments()])
def test_experiment_smoke_run_is_wellformed(exp_id):
    """Every registered experiment must run at smoke scale and produce
    a coherent result: aligned series, at least one check, no
    exceptions, and no failing check — a claim a scale cannot show is
    not emitted (see ``out_of_reach`` in params), never tolerated red."""
    result = get(exp_id).run("smoke")
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == exp_id
    assert result.series, "no series produced"
    assert result.checks, "no expectations evaluated"
    # Series lengths match the x axis (figure-shaped experiments).
    for name, ys in result.series.items():
        assert len(ys) == len(result.x_values), name
    failed = [f"{c.name} -- {c.detail}" for c in result.checks if not c.passed]
    assert result.all_passed, failed


def test_fig5_headline_at_default_scale_is_cached_by_marker():
    """The contention-dependent Fig 5 claims need default scale; covered
    by benchmarks/bench_fig05_stat.py (not re-run here to keep the unit
    suite fast).  This test just asserts the experiment metadata."""
    exp = get("fig5")
    assert "82%" in exp.description or "stat" in exp.title.lower()
    assert exp.figure == "Fig 5"
