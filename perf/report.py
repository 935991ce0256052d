"""Printing and comparing benchmark results.

``BENCHMARK.json`` is the single place that names the metrics, their
units, which direction is better and how far an end-to-end metric may
worsen; :class:`Spec` reads it.  A metric the file gives no bound is an
exact one (fixed by seed and code): comparisons hold it to no change at
all.
"""

from __future__ import annotations

import json
import os
import subprocess

#: Host metrics two runs of the same code must agree on within their bound.
NOISY = ("setup_s", "host_ops_per_cal_s", "host_peak_rss_mb")


class Spec:
    """Names, units, directions and bounds from ``BENCHMARK.json``."""

    def __init__(self, repo_dir: str) -> None:
        with open(os.path.join(repo_dir, "BENCHMARK.json")) as fh:
            self.doc = json.load(fh)
        self.end_to_end = [m["name"] for m in self.doc["end_to_end"]]
        self.per_layer = [m["name"] for m in self.doc["per_layer"]]
        metrics = self.doc["end_to_end"] + self.doc["per_layer"]
        self.unit = {m["name"]: m["unit"] for m in metrics}
        self.better = {m["name"]: m["better"] for m in metrics}
        self.bound = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        # The contract carries this one outside its metric tables, as the
        # result line's failed / attempted; any failure fails the run.
        self.unit["failed_op_share"] = "share"
        self.better["failed_op_share"] = "lower"

    @property
    def run_seconds(self) -> float:
        return float(self.doc["run_seconds"])


def git_sha(repo_dir: str) -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=repo_dir, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_workload(result: dict, spec: Spec, stream) -> None:
    """Every metric of one workload by name, with its unit."""
    info = result["info"]
    print(
        f"== {result['workload']} (seed {result['seed']}): "
        f"{info['segments_timed']} timed segments, {info['segments_dropped']} dropped; "
        f"exact window {info['exact_segments']} segments / {info['ops_in_exact_window']} ops; "
        f"{result['failed']} of {result['attempted']} operations failed",
        file=stream,
    )
    for section in ("end_to_end", "per_layer"):
        values = result.get(section)
        if values is None:
            continue
        print(f"-- {section}", file=stream)
        for name, value in values.items():
            print(f"  {name:<42} {_fmt(value):>14} {spec.unit[name]}", file=stream)
    print("-- info (not metrics)", file=stream)
    samples = ", ".join(f"{k} n={n}" for k, n in info["latency_samples"].items())
    print(f"  latency samples: {samples}", file=stream)
    for name in ("raw_ops_per_s", "cal_iters_per_s", "sim_digest"):
        print(f"  {name:<42} {_fmt(info[name]):>14}", file=stream)


def verdict(base: float, new: float, better: str, bound: float, noise: float) -> str:
    """``improved / unchanged / regressed / unresolved``.

    *noise* is the metric's spread inside one run (inter-quartile share
    of per-segment values).  A metric noisier than its bound cannot be
    called unchanged; a single pair of runs is a screen, not a claim —
    a gain still needs the ten alternating pairs of the metrics guide.
    """
    if base == new:
        return "unchanged"
    if base == 0:
        return "regressed" if better == "lower" else "improved"
    # Relative change in the direction that is better.
    gain = (new - base) / base * (1 if better == "higher" else -1)
    if noise > bound and abs(gain) <= noise:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    if gain > noise:
        return "improved"
    return "unchanged"


def print_compare(base: dict, new: dict, spec: Spec) -> None:
    """One row per (workload, end-to-end metric): base, new, ratio, verdict."""
    print(f"base {base['git_sha'][:12]} seed {base['seed']}  ->  "
          f"new {new['git_sha'][:12]} seed {new['seed']}")
    print(f"{'workload':<13} {'metric':<20} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        for metric, b_val in b["end_to_end"].items():
            n_val = n["end_to_end"].get(metric)
            if n_val is None:
                continue
            noise = max(b["spread"].get(metric, 0.0), n["spread"].get(metric, 0.0))
            ratio = f"{n_val / b_val:.4f}" if b_val else "-"
            word = verdict(b_val, n_val, spec.better[metric], spec.bound.get(metric, 0.0), noise)
            print(f"{name:<13} {metric:<20} {_fmt(b_val):>12} {_fmt(n_val):>12} {ratio:>9}  {word}")


def print_repeat_check(first: dict, second: dict, spec: Spec) -> bool:
    """Two sets of runs of the same code: exact metrics must be
    identical, host metrics within their bounds.  Prints both values
    of every row; returns whether all rows agree."""
    ok = True
    print(f"{'workload':<13} {'metric':<20} {'first':>14} {'second':>14}  agreement")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        rows = {**a["end_to_end"], "sim_digest": a["info"]["sim_digest"]}
        other = {**b["end_to_end"], "sim_digest": b["info"]["sim_digest"]}
        for metric, a_val in rows.items():
            b_val = other[metric]
            if metric in NOISY:
                off = abs(a_val - b_val) / a_val
                good = off <= spec.bound[metric]
                word = f"{off:.1%} apart, bound {spec.bound[metric]:.0%}"
            else:
                good = a_val == b_val
                word = "identical" if good else "DIFFERENT (must be exact)"
            ok &= good
            flag = "" if good else "  <-- FAIL"
            print(f"{name:<13} {metric:<20} {_fmt(a_val)[:14]:>14} {_fmt(b_val)[:14]:>14}  {word}{flag}")
    return ok
