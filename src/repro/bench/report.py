"""The one benchmark report, ``BENCH.json``: run, record history, gate.

A report holds one ``machine`` block, one ``results`` map (the kernel
points, then the scale points) and a ``history`` list: every write
appends the report it replaces, condensed to ``{git_sha, timestamp,
machine, medians, events}``, so the trajectory lives in one file.

The gate checks what is deterministic exactly and what is noisy only
where the committed runs can tell: any ``events_per_run`` that differs
from the committed value fails, and a ``*_per_sec`` median is held to
``tolerance`` only when the committed runs' spread, (max - min) /
median, is below it.  A wider rate is reported as ungated.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from typing import Optional

from repro.bench.kernel import kernel_results
from repro.bench.scale import scale_results

#: Canonical report location (repo root when run from a checkout).
BENCH_FILE = "BENCH.json"


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
    }


def run_benchmarks(quick: bool = False, rounds: Optional[int] = None) -> dict:
    """Run every point into one report.  ``quick`` measures a subset of
    the full points (no sweep; the 1k scale points only) at the same
    workload sizes, so every quick point has a committed counterpart."""
    results = kernel_results(quick, rounds) + scale_results(quick, rounds)
    return {
        "schema": 2,
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": _machine_info(),
        "mode": "quick" if quick else "full",
        "results": {r.name: r.to_dict() for r in results},
    }


def history_entry(report: dict) -> dict:
    """Condense a report to the summary its successor's history keeps."""
    results = report["results"]
    return {
        "git_sha": report.get("git_sha"),
        "timestamp": report.get("timestamp"),
        "machine": report.get("machine"),
        "medians": {name: doc["median"] for name, doc in results.items()},
        "events": {
            name: doc["events_per_run"]
            for name, doc in results.items()
            if "events_per_run" in doc
        },
    }


def append_history(report: dict, previous: Optional[dict]) -> dict:
    """Give *report* the history of the *previous* report plus its
    summary (an empty history when there is none)."""
    history = []
    if previous is not None:
        history = previous.get("history", []) + [history_entry(previous)]
    report["history"] = history
    return report


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _spread(runs: list[float], median: float) -> float:
    if len(runs) < 2 or not median:
        return 0.0
    return (max(runs) - min(runs)) / median


def check_against_baseline(
    report: dict, committed: dict, tolerance: float = 0.30
) -> tuple[list[str], list[str]]:
    """Compare a fresh *report* to the *committed* one, point by point.

    Returns ``(failures, ungated)``: human-readable lines naming the
    point and metric.  Every fresh point must exist in the committed
    report (a quick run is a subset of a full one).  Seconds-valued
    points (the sweep) are recorded, not gated: the harness workload
    legitimately grows.
    """
    failures: list[str] = []
    ungated: list[str] = []
    committed_results = committed.get("results", {})
    for name, fresh in report.get("results", {}).items():
        doc = committed_results.get(name)
        if doc is None:
            failures.append(f"{name}: not in the committed report")
            continue
        want = doc.get("events_per_run")
        got = fresh.get("events_per_run")
        if want != got:
            failures.append(
                f"{name} (events_per_run): fresh {got} != committed {want}"
            )
        metric = doc["metric"]
        if not metric.endswith("_per_sec"):
            continue
        spread = _spread(doc.get("runs", []), doc["median"])
        if spread >= tolerance:
            ungated.append(f"{name} ({metric}): ungated (spread {spread:.0%})")
            continue
        floor = doc["median"] * (1.0 - tolerance)
        if fresh["median"] < floor:
            failures.append(
                f"{name} ({metric}): fresh median {fresh['median']:.0f} is "
                f"below the committed {doc['median']:.0f} - {tolerance:.0%} "
                f"floor ({floor:.0f})"
            )
    return failures, ungated
