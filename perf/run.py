#!/usr/bin/env python3
"""The repository's benchmark: five closed-loop client workloads,
calibrated host speed, exact simulated latency, a per-layer ledger.

Driver form (one workload, one JSON line last on stdout)::

    python3 perf/run.py --workload read_hit --seed 1 --seconds 10 --trace 0

Whole set, with the ledger written under ``perf/out/``::

    python3 perf/run.py [--seed N] [--seconds S] [--quick]

Checks::

    python3 perf/run.py --self-test            # the output check has teeth
    python3 perf/run.py --repeat-check         # two sets agree within the bounds
    python3 perf/run.py --compare A.json B.json

See ``perf/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
sys.path.insert(0, os.path.join(REPO_DIR, "src"))

import ledger  # noqa: E402
import report  # noqa: E402

#: Set-ups timed per workload; ``setup_s`` is their median.
SETUPS = 3


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def _child(spec: dict) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} pass of {spec['workload']} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(
    name: str, seed: int, shape: dict, *, e2e: bool, layers: bool, corrupt: bool = False
) -> dict:
    """Run every pass one workload needs and assemble its metrics.

    *shape* says how long to measure: ``quick`` (the smoke test's fixed
    two segments) or for ``seconds`` of wall clock.  *e2e* adds the
    extra set-up passes ``setup_s`` is the median of; *layers* adds the
    profiled segments and the obs pass.
    """
    base = {"workload": name, "seed": seed, **shape}
    plain = _child({**base, "mode": "plain", "profile": layers, "corrupt": corrupt})
    result = {
        "workload": name, "seed": seed,
        "attempted": plain["attempted"], "failed": plain["failed"],
        "first_error": plain["first_error"],
        "info": {
            "segments_timed": len(plain["segments"]),
            "segments_dropped": plain["host"]["segments_dropped"],
            "exact_segments": plain["exact"]["segments"],
            "ops_in_exact_window": plain["exact"]["ops"],
            "latency_samples": {k: v["n"] for k, v in plain["exact"]["latency_us"].items()},
            "raw_ops_per_s": plain["host"]["raw_ops_per_s"],
            "cal_iters_per_s": plain["host"]["cal_iters_per_s"],
            "sim_digest": plain["exact"]["sim_digest"],
        },
        "spread": {"host_ops_per_cal_s": plain["host"]["ops_per_cal_s_spread"]},
    }

    setups = [plain["setup_cal_s"]]
    if e2e and not shape["quick"]:
        setups += [_child({**base, "mode": "setup"})["setup_cal_s"] for _ in range(SETUPS - 1)]
    result["end_to_end"] = ledger.end_to_end_values(plain, statistics.median(setups))
    result["info"]["setup_cal_s"] = setups
    result["spread"]["setup_s"] = (max(setups) - min(setups)) / statistics.median(setups)

    if layers:
        obs = _child({**base, "mode": "obs"})
        result["attempted"] += obs["attempted"]
        result["failed"] += obs["failed"]
        _check_tracing_is_invisible(name, plain["exact_head"], obs["exact"])
        result["per_layer"] = ledger.per_layer_values(plain, obs)
        ledger_doc = dict(
            workload=name, seed=seed, plain_segments=plain["segments"],
            layers=plain["profile"]["layers"],
            entry_points=plain["profile"]["entry_points"],
            counters=plain["counters"],
            tiers_sim_us_per_op=obs["obs"]["tier_sim_us_per_op"],
            profile_overhead_ratio=result["per_layer"]["profile.overhead_ratio"],
            obs_overhead_ratio=result["per_layer"]["obs.overhead_ratio"],
            profile_segments=plain["profile"]["segments"],
            obs_segments=obs["segments"],
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{name}.ledger.json"), "w") as fh:
            json.dump(ledger_doc, fh, indent=1, sort_keys=True)
    return result


def _check_tracing_is_invisible(name: str, untraced: dict, traced: dict) -> None:
    """The traced pass must simulate exactly what the untraced one did."""
    for key in ("sim_digest", "events_per_op", "sim_ops_per_s", "latency_us", "failed"):
        if untraced[key] != traced[key]:
            raise BenchError(
                f"{name}: tracing perturbed the model: {key} is {untraced[key]!r} "
                f"untraced and {traced[key]!r} traced"
            )


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #
def _driver(args, spec: report.Spec) -> int:
    """The contract form: one workload, one JSON object on the last line."""
    layers = args.trace == 1
    result = run_workload(
        args.workload, args.seed, _shape(args), e2e=not layers, layers=layers,
        corrupt=args.corrupt,
    )
    if layers:
        # BENCHMARK.json can list the per-kind latency percentiles only
        # under per_layer, and the contract wants every listed name on
        # every workload: on this line alone, a kind the workload never
        # issues reads 0.  (A real latency is never 0.)
        names = spec.per_layer
        values = {
            **dict.fromkeys(ledger.LATENCY_PERCENTILES, 0.0),
            **result["end_to_end"], **result["per_layer"],
        }
    else:
        names, values = spec.end_to_end, result["end_to_end"]
    report.print_workload(result, spec, sys.stderr)
    if result["failed"]:
        print(f"{result['failed']} operations failed:\n{result['first_error']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": spec.unit[n]} for n in names},
    }))
    return 0 if result["failed"] == 0 else 1


def _run_set(args, spec: report.Spec) -> dict:
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, _shape(args), e2e=True, layers=True)
        report.print_workload(results[name], spec, sys.stdout)
    return {
        "seed": args.seed,
        "git_sha": report.git_sha(REPO_DIR),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "shape": _shape(args),
        "workloads": results,
    }


def _full(args, spec: report.Spec) -> int:
    doc = _run_set(args, spec)
    out = args.out or os.path.join(OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"wrote {out}")
    failed = sum(r["failed"] for r in doc["workloads"].values())
    if failed:
        print(f"FAILED: {failed} operations returned wrong output", file=sys.stderr)
    return 1 if failed else 0


def _self_test(args) -> int:
    """Corrupt one shadow byte and require the whole command to fail."""
    outcomes = []
    for extra in ([], ["--corrupt"]):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", "read_hit", "--quick",
             "--trace", "0", "--seed", str(args.seed), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        )
        line = json.loads(proc.stdout.splitlines()[-1])
        outcomes.append((proc.returncode, line["correct"], line["failed"]))
        print(f"{'corrupted shadow byte' if extra else 'clean run'}: exit {proc.returncode}, "
              f"correct={line['correct']}, {line['failed']} of {line['attempted']} operations failed")
    clean, dirty = outcomes
    if clean == (0, True, 0) and dirty[0] != 0 and not dirty[1] and dirty[2] > 0:
        print("self-test passed: the output check fails on a corrupted byte")
        return 0
    print("self-test FAILED: the output check is vacuous", file=sys.stderr)
    return 1


def _repeat_check(args, spec: report.Spec) -> int:
    first, second = _run_set(args, spec), _run_set(args, spec)
    ok = report.print_repeat_check(first, second, spec)
    print("repeat-check passed" if ok else "repeat-check FAILED")
    return 0 if ok else 1


def _compare(args, spec: report.Spec) -> int:
    with open(args.compare[0]) as fh:
        base = json.load(fh)
    with open(args.compare[1]) as fh:
        new = json.load(fh)
    report.print_compare(base, new, spec)
    return 0


def _shape(args) -> dict:
    return {"quick": args.quick, "seconds": args.seconds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measure for this long per workload "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), help="driver form: 0 prints the "
                    "end-to-end metrics, 1 the per-layer metrics, as one JSON line")
    ap.add_argument("--quick", action="store_true", help="tiny smoke run; numbers are meaningless")
    ap.add_argument("--out", help="where to write results.json")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        import passes

        try:
            print(json.dumps(passes.run_pass(json.loads(args.child))))
        except passes.NoisyHost as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        return 0
    spec = report.Spec(REPO_DIR)
    if args.compare:
        return _compare(args, spec)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: the system under test is not importable: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec.run_seconds
    try:
        if args.self_test:
            return _self_test(args)
        if args.repeat_check:
            return _repeat_check(args, spec)
        if args.trace is not None:
            if not args.workload:
                ap.error("--trace needs --workload")
            return _driver(args, spec)
        return _full(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
