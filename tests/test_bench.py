"""Tests for the wall-clock benchmark subsystem and its one report."""

import json
import os

import pytest

from repro.bench import (
    append_history,
    check_against_baseline,
    load_report,
    run_benchmarks,
    write_report,
)

COMMITTED = os.path.join(os.path.dirname(__file__), "..", "BENCH.json")

#: Scheduler entries one end-to-end cell mints for its 2,000 ops (1,000
#: processes on one client stack statting one hot file, then reading).
#: Deterministic, so pinned to the unit.  13,101 with every op on its
#: own chain; 5,209 with the deleted same-instant windows on top of
#: singleflight — the ceiling this may never exceed; lower it when a
#: change removes entries.  5,154 while every MCD command booked its
#: lookup and copy CPU as visits of their own; 5,112 while every
#: multi-get leg woke on its response before handing it to the join;
#: 5,096 while every op woke for its FUSE crossing (one wake per op of
#: the 13-op warm pass and of the 2,000-op burst, less the one burst op
#: whose flight ends before its crossing and still waits it out).
E2E_CELL_ENTRIES = 3084


@pytest.fixture(scope="module")
def quick_report():
    # One round keeps this a smoke test; workload sizes are the real ones.
    return run_benchmarks(quick=True, rounds=1)


def _copy(report):
    return json.loads(json.dumps(report))


def test_quick_report_schema(quick_report):
    assert quick_report["schema"] == 2
    assert quick_report["mode"] == "quick"
    assert "platform" in quick_report["machine"]
    results = quick_report["results"]
    # Quick mode skips the sweep and runs the 1k scale points only.
    assert set(results) == {"kernel", "hop", "scale_1k_heap", "scale_1k_e2e"}
    for doc in results.values():
        assert doc["metric"].endswith("_per_sec")
        assert doc["median"] > 0
        assert len(doc["runs"]) == 1
        assert doc["events_per_run"] > 0


def test_scale_report_schema(quick_report):
    results = quick_report["results"]
    # One schedule entry per visit, plus one kick per client.
    assert results["scale_1k_heap"]["events_per_run"] == 1_000 * 21
    # Singleflight absorbs the hot-file burst: one cell, exact entries.
    assert results["scale_1k_e2e"]["events_per_run"] == E2E_CELL_ENTRIES


def test_report_round_trips_through_json(tmp_path, quick_report):
    path = tmp_path / "bench.json"
    write_report(str(path), quick_report)
    assert load_report(str(path)) == quick_report


def test_write_appends_the_replaced_report_to_history(quick_report):
    first = append_history(_copy(quick_report), None)
    assert first["history"] == []
    second = append_history(_copy(quick_report), first)
    third = append_history(_copy(quick_report), second)
    assert len(third["history"]) == 2
    entry = third["history"][-1]
    assert set(entry) == {"git_sha", "timestamp", "machine", "medians", "events"}
    assert entry["medians"]["kernel"] == quick_report["results"]["kernel"]["median"]
    assert entry["events"]["scale_1k_e2e"] == E2E_CELL_ENTRIES


def test_check_against_baseline_flags_regressions(quick_report):
    committed = _copy(quick_report)
    # Identical run: no failures, and one round has no spread to widen.
    assert check_against_baseline(quick_report, committed) == ([], [])
    # A >30% slowdown in the fresh run gates.
    slow = _copy(quick_report)
    slow["results"]["kernel"]["median"] *= 0.5
    failures, _ = check_against_baseline(slow, committed, tolerance=0.30)
    assert len(failures) == 1 and "kernel (events_per_sec)" in failures[0]
    assert "floor" in failures[0]
    # Within tolerance passes.
    near = _copy(quick_report)
    near["results"]["kernel"]["median"] *= 0.8
    assert check_against_baseline(near, committed, tolerance=0.30) == ([], [])
    # A fresh point the committed report lacks is a failure: a quick run
    # must be a subset of the full one.
    del committed["results"]["scale_1k_e2e"]
    failures, _ = check_against_baseline(quick_report, committed)
    assert failures == ["scale_1k_e2e: not in the committed report"]


def test_events_off_by_one_fails_the_gate(quick_report):
    for delta in (-1, 1):
        committed = _copy(quick_report)
        committed["results"]["scale_1k_e2e"]["events_per_run"] += delta
        failures, _ = check_against_baseline(quick_report, committed)
        (failure,) = failures
        assert failure.startswith("scale_1k_e2e (events_per_run):")


def test_rate_with_wide_committed_spread_is_ungated(quick_report):
    committed = _copy(quick_report)
    doc = committed["results"]["hop"]
    doc["runs"] = [doc["median"] * 0.5, doc["median"], doc["median"] * 1.5]
    slow = _copy(quick_report)
    slow["results"]["hop"]["median"] *= 0.1
    failures, ungated = check_against_baseline(slow, committed, tolerance=0.30)
    assert failures == []
    assert ungated == ["hop (events_per_sec): ungated (spread 100%)"]


def test_e2e_merged_metrics_are_shard_invariant():
    """The end-to-end cells are independent, so a point's deterministic
    metrics (ops, events) are its cell count times one cell's."""
    from repro.bench.scale import _e2e_run

    one, _ = _e2e_run(1_000)
    four, _ = _e2e_run(4_000)
    assert four["ops"] == 4 * one["ops"] == 4 * 2_000
    assert four["events"] == 4 * one["events"]
    assert four["events"] == 4 * E2E_CELL_ENTRIES


def test_committed_report_matches_schema():
    """The committed BENCH.json holds every full-mode point, the exact
    entry counts of 1, 100 and 1,000 end-to-end cells, and a history."""
    report = load_report(COMMITTED)
    assert report["mode"] == "full"
    assert set(report["results"]) == {"kernel", "hop", "sweep"} | {
        f"scale_{point}_heap" for point in ("1k", "10k", "100k")
    } | {f"scale_{point}_e2e" for point in ("1k", "100k", "1m")}
    for point, cells in (("1k", 1), ("100k", 100), ("1m", 1000)):
        doc = report["results"][f"scale_{point}_e2e"]
        assert doc["events_per_run"] == cells * E2E_CELL_ENTRIES
        assert doc["median"] > 0
    assert report["history"]


def test_committed_report_claims_the_required_speedup():
    """The committed history must document >= 1.5x on the bare kernel:
    the seed kernel's recorded median against the later kernel report's
    (both entries carried over from the earlier per-suite reports)."""
    history = load_report(COMMITTED)["history"]
    (seed,) = [e for e in history if e["git_sha"].startswith("dc3b5bf")]
    (later,) = [
        e for e in history
        if e["git_sha"].startswith("45ea6ea") and "kernel" in e["medians"]
    ]
    assert seed["medians"]["kernel"] > 0
    assert later["medians"]["kernel"] / seed["medians"]["kernel"] >= 1.5
