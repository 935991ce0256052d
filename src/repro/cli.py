"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig5 --scale default
    python -m repro run fig5 --trace-out trace.json --metrics-out m.jsonl
    python -m repro run fig6a --json
    python -m repro run chaos --oplog-out ops.jsonl
    python -m repro analyze fig5 --scale smoke
    python -m repro run-all --scale smoke
    python -m repro run-all --scale paper --jobs 8
    python -m repro bench --quick
    python -m repro report --scale default --output EXPERIMENTS.md

``--trace-out`` writes the instrumented pass's spans as Chrome
``trace_event`` JSON (open in chrome://tracing or https://ui.perfetto.dev);
``--metrics-out`` writes one JSON line per metrics-registry component;
``--oplog-out`` writes one JSON line per client-visible operation
(type, path, per-tier time, outcome tags, retry/failover counts).
``analyze`` runs an experiment with the op log enabled and prints the
tail-latency "why-slow" report (p99+ exemplars, slow-vs-median tier
attribution) plus any SLO burn-rate report the harness produced.
``--jobs N`` fans each experiment's per-configuration sweep over N
worker processes (0 = all cores); results merge deterministically by
configuration index, so the output is identical to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.harness import all_experiments, get, render_series_table
from repro.harness.experiment import SCALES


def _print_result(result, elapsed: float, chart: bool = False) -> None:
    print(render_series_table(result.x_name, result.x_values, result.series))
    print()
    if chart:
        from repro.harness.chart import render_chart

        numeric_x = all(isinstance(x, (int, float)) for x in result.x_values)
        try:
            print(
                render_chart(
                    result.x_values if numeric_x else list(range(len(result.x_values))),
                    result.series,
                    x_label=result.x_name,
                    y_label="value",
                    log_x=numeric_x and min(result.x_values) > 0,
                )
            )
            print()
        except ValueError as e:
            print(f"(chart unavailable: {e})")
    for note in result.notes:
        print(f"note: {note}")
    breakdown = result.extras.get("tier_breakdown")
    if breakdown:
        print("per-tier latency breakdown (instrumented pass):")
        print(breakdown)
        print()
    why_slow = result.extras.get("why_slow")
    if why_slow:
        print(why_slow)
        print()
    slo_report = result.extras.get("slo_report")
    if slo_report:
        print(slo_report)
        print()
    for c in result.checks:
        print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name} -- {c.detail}")
    ok = sum(1 for c in result.checks if c.passed)
    print(f"\n{ok}/{len(result.checks)} checks passed ({elapsed:.1f}s wall)")


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def cmd_list(_args) -> int:
    for exp in all_experiments():
        print(f"{exp.id:<22} {exp.figure:<18} {exp.title}")
    return 0


def _run_observed(exp, args):
    """Run the experiment, capturing instrumented testbeds if any CLI
    observability flag asks for them.  Returns (result, capture)."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    oplog_out = getattr(args, "oplog_out", None)
    sample_interval = getattr(args, "sample_interval", None)
    # What the parsed command carries for the runner: `run` has
    # --selector (fig-style runners only), `repro chaos` has --replicas.
    run_kwargs = {
        k: v
        for k in ("selector", "replicas")
        if (v := getattr(args, k, None)) is not None
    }
    if not (trace_out or metrics_out or oplog_out or sample_interval):
        return exp.run(args.scale, **run_kwargs), None
    from repro.obs import ObsRequest, observing

    req = ObsRequest(
        trace=bool(trace_out),
        oplog=bool(oplog_out),
        sample_interval=sample_interval,
    )
    with observing(req):
        result = exp.run(args.scale, **run_kwargs)
    traced = [o for o in req.captures if o.tracer.enabled and o.tracer.spans]
    capture = traced[-1] if traced else (req.captures[-1] if req.captures else None)
    return result, capture


def _export_artifacts(capture, args) -> None:
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    oplog_out = getattr(args, "oplog_out", None)
    if not (trace_out or metrics_out or oplog_out):
        return
    if capture is None:
        print(
            "warning: experiment published no instrumented run; "
            "no trace/metrics artifacts written",
            file=sys.stderr,
        )
        return
    from repro.obs.export import (
        write_chrome_trace,
        write_metrics_jsonl,
        write_oplog_jsonl,
    )

    if oplog_out:
        if capture.oplog is not None and len(capture.oplog):
            try:
                n = write_oplog_jsonl(capture.oplog, oplog_out)
            except OSError as e:
                print(f"error: cannot write {oplog_out}: {e}", file=sys.stderr)
            else:
                print(f"wrote {oplog_out} ({n} op records)", file=sys.stderr)
        else:
            print(
                f"warning: no op records captured; {oplog_out} not written",
                file=sys.stderr,
            )
    if trace_out:
        if capture.tracer.enabled:
            try:
                n = write_chrome_trace(capture.tracer, trace_out)
            except OSError as e:
                print(f"error: cannot write {trace_out}: {e}", file=sys.stderr)
            else:
                print(f"wrote {trace_out} ({n} trace events)", file=sys.stderr)
        else:
            print(f"warning: no trace captured; {trace_out} not written", file=sys.stderr)
    if metrics_out:
        try:
            n = write_metrics_jsonl(capture.registry, metrics_out)
        except OSError as e:
            print(f"error: cannot write {metrics_out}: {e}", file=sys.stderr)
        else:
            print(f"wrote {metrics_out} ({n} components)", file=sys.stderr)


def cmd_run(args) -> int:
    from repro.harness.parallel import job_pool, resolve_jobs

    try:
        exp = get(args.experiment)
    except KeyError as e:
        print(e, file=sys.stderr)
        return 2
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    if not args.json:
        print(f"== {exp.figure}: {exp.title} [{args.scale}]")
        print(exp.description)
        print()
    t0 = time.time()
    try:
        with job_pool(jobs):
            result, capture = _run_observed(exp, args)
    except ValueError as e:
        # e.g. `chaos --replicas R` outside 1..num_mcds for the scale.
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TypeError as e:
        if "selector" in str(e):
            print(
                f"error: {args.experiment} does not take --selector", file=sys.stderr
            )
            return 2
        raise
    _export_artifacts(capture, args)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        _print_result(result, time.time() - t0, chart=args.chart)
    return 0 if result.all_passed else 1


def cmd_run_all(args) -> int:
    from repro.harness.parallel import job_pool, resolve_jobs

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    failures = 0
    collected = []
    # One pool for the whole run: worker startup is paid once.
    with job_pool(jobs):
        for exp in all_experiments():
            t0 = time.time()
            result = exp.run(args.scale)
            ok = sum(1 for c in result.checks if c.passed)
            status = "ok" if result.all_passed else "CHECK-FAILURES"
            line = (
                f"{exp.id:<22} {ok}/{len(result.checks)} checks "
                f"({time.time() - t0:.1f}s) {status}"
            )
            print(line, file=sys.stderr if args.json else sys.stdout)
            if args.json:
                collected.append(result.to_dict())
            failures += not result.all_passed
    if args.json:
        print(json.dumps(collected, indent=2, sort_keys=True))
    return 0 if failures == 0 else 1


def cmd_bench(args) -> int:
    from repro.bench import (
        BENCH_E2E_FILE,
        BENCH_FILE,
        BENCH_SCALE_FILE,
        attach_baseline,
        check_against_baseline,
        load_report,
        run_benchmarks,
        run_e2e_benchmarks,
        run_scale_benchmarks,
        write_report,
    )

    if args.out is None:
        args.out = {
            "kernel": BENCH_FILE,
            "e2e": BENCH_E2E_FILE,
            "scale": BENCH_SCALE_FILE,
        }[args.suite]

    def run_suite():
        if args.suite == "scale":
            return run_scale_benchmarks(
                quick=args.quick, rounds=args.rounds, shards=args.shards
            )
        if args.suite == "e2e":
            return run_e2e_benchmarks(quick=args.quick, rounds=args.rounds)
        return run_benchmarks(quick=args.quick, rounds=args.rounds)

    if args.profile is not None:
        from repro.bench import (
            profile_artifact,
            profile_suite,
            render_profile,
            top_functions,
        )

        report, profiler = profile_suite(run_suite)
        rows = top_functions(profiler, args.profile)
        print(render_profile(rows))
        artifact_path = f"{args.out}.profile.json"
        with open(artifact_path, "w") as f:
            json.dump(profile_artifact(args.suite, args.profile, rows), f, indent=2)
            f.write("\n")
        print(f"wrote {artifact_path}")
        # Profiled numbers carry interpreter overhead: never write the
        # report or gate against the committed baseline from this run.
        for name, doc in report["results"].items():
            print(f"{name:<20} {doc['median']:.0f} {doc['metric']} (profiled)")
        return 0

    report = run_suite()
    committed = None
    try:
        committed = load_report(args.out)
    except (OSError, json.JSONDecodeError):
        pass

    if args.check:
        if committed is None:
            print(f"error: no committed report at {args.out}", file=sys.stderr)
            return 2
        # A quick run measures a subset of the committed suite (only
        # the 1k point): absent results are expected there, not
        # regressions.
        failures = check_against_baseline(
            report,
            committed,
            tolerance=args.tolerance,
            suite=args.suite,
            missing_ok=args.quick,
        )
        for name, doc in report["results"].items():
            print(f"{name:<20} {doc['median']:.0f} {doc['metric']}")
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"no regression beyond {args.tolerance:.0%} vs {args.out}")
        return 0

    if args.rebaseline or committed is None:
        from repro.bench import baseline_from

        baseline = baseline_from(report, note="rebaselined from this run")
    else:
        # Carry the original baseline forward so speedups always compare
        # against the pre-optimisation kernel.
        baseline = committed.get("baseline")
    attach_baseline(report, baseline)
    write_report(args.out, report)
    for name, doc in report["results"].items():
        speed = report.get("speedup_vs_baseline", {}).get(name)
        extra = f"  ({speed:.2f}x vs baseline)" if speed else ""
        print(f"{name:<20} {doc['median']:.0f} {doc['metric']}{extra}")
    for point, per in report.get("speedup_vs_heap", {}).items():
        pairs = "  ".join(f"{v}={s:.2f}x" for v, s in per.items())
        print(f"{point:<20} vs heap: {pairs}")
    print(f"wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    """`repro analyze` — run one experiment instrumented and print the
    tail-latency "why-slow" report plus SLO compliance."""
    from repro.harness.parallel import job_pool, resolve_jobs
    from repro.obs import ObsRequest, observing, render_why_slow, tail_summary

    try:
        exp = get(args.experiment)
    except KeyError as e:
        print(e, file=sys.stderr)
        return 2
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    req = ObsRequest(trace=True, oplog=True)
    t0 = time.time()
    with job_pool(jobs):
        with observing(req):
            result = exp.run(args.scale)
    logged = [o for o in req.captures if o.oplog is not None and len(o.oplog)]
    if not logged:
        print(
            f"error: {exp.id} published no instrumented run with op records; "
            "nothing to analyze",
            file=sys.stderr,
        )
        return 2
    capture = logged[-1]
    summary = tail_summary(capture.oplog, exemplars=args.exemplars)
    if args.oplog_out:
        from repro.obs.export import write_oplog_jsonl

        n = write_oplog_jsonl(capture.oplog, args.oplog_out)
        print(f"wrote {args.oplog_out} ({n} op records)", file=sys.stderr)
    if args.json:
        doc = {
            "experiment": exp.id,
            "scale": args.scale,
            "ops_recorded": len(capture.oplog),
            "ops_dropped": capture.oplog.dropped,
            "tail": summary,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"== analyze {exp.id} [{args.scale}]  "
          f"({len(capture.oplog)} ops, {time.time() - t0:.1f}s wall)")
    print()
    print(render_why_slow(summary))
    print()
    breakdown = result.extras.get("tier_breakdown")
    if breakdown:
        print("per-tier latency breakdown (instrumented pass):")
        print(breakdown)
    slo_report = result.extras.get("slo_report")
    if slo_report:
        print(slo_report)
    return 0


def cmd_report(args) -> int:
    from repro.harness.experiments_md import generate

    text = generate(args.scale)
    with open(args.output, "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.output}")
    return 0


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """The flags shared by `run` and its per-experiment sugar commands."""
    sub.add_argument("--scale", choices=SCALES, default="smoke")
    sub.add_argument(
        "--chart", action="store_true", help="render an ASCII chart of the series"
    )
    sub.add_argument(
        "--json", action="store_true", help="print the result as JSON on stdout"
    )
    sub.add_argument(
        "--trace-out", metavar="PATH",
        help="write the instrumented pass's spans as Chrome trace_event JSON",
    )
    sub.add_argument(
        "--metrics-out", metavar="PATH",
        help="write metrics-registry snapshots as JSON lines (one per component)",
    )
    sub.add_argument(
        "--oplog-out", metavar="PATH",
        help="write the instrumented pass's per-op lifecycle records as "
        "JSON lines (one op per line; enables the op log)",
    )
    sub.add_argument(
        "--sample-interval", type=_positive_float, metavar="SECONDS",
        help="sample NIC/queue/memory time series at this sim-time interval",
    )
    sub.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep configurations (0 = all cores, "
        "default 1 = sequential; output is identical either way)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMCa reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id (see `list`)")
    _add_run_flags(run)
    run.add_argument(
        "--selector", choices=["crc32", "modulo", "ketama"], default=None,
        help="key->MCD selector for fig-style runners (default: the "
        "experiment's own; `ketama` with static membership must "
        "reproduce the committed FINGERPRINTS.json entries)",
    )
    run.set_defaults(func=cmd_run)

    # `repro <id>` is `repro run <id>` for every registered experiment;
    # help and description are the registry's own title/description.
    for exp in all_experiments():
        sugar = sub.add_parser(exp.id, help=exp.title, description=exp.description)
        _add_run_flags(sugar)
        if exp.id == "chaos":
            sugar.add_argument(
                "--replicas", type=int, default=1, metavar="R",
                help="store each key on R distinct MCDs (default 1 = the paper's "
                "unreplicated mapping); killed daemons then change only the hit "
                "rate, never the returned bytes",
            )
        sugar.set_defaults(func=cmd_run, experiment=exp.id)

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--scale", choices=SCALES, default="smoke")
    run_all.add_argument(
        "--json", action="store_true", help="print all results as a JSON array on stdout"
    )
    run_all.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep configurations (0 = all cores, "
        "default 1 = sequential; output is identical either way)",
    )
    run_all.set_defaults(func=cmd_run_all)

    bench = sub.add_parser(
        "bench",
        help="run wall-clock benchmarks (BENCH_kernel/e2e/scale.json)",
    )
    bench.add_argument(
        "--suite", choices=["kernel", "e2e", "scale"], default="kernel",
        help="'kernel' times the bare DES kernel (events/sec); 'e2e' "
        "drives fixed fop sequences through a full testbed (ops/sec); "
        "'scale' storms 1k/10k/100k timer clients, one schedule entry "
        "per visit and batched+sharded (ops/sec)",
    )
    bench.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard count for the scale suite's tier2 variant (shards "
        "run inline unless a job pool is active; merge is deterministic "
        "either way)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="fewer rounds and no harness sweep (same workload sizes, so "
        "the per-second rates stay comparable to full runs)",
    )
    bench.add_argument(
        "--rounds", type=int, default=None, metavar="K",
        help="override the number of rounds per benchmark",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="report path (default: BENCH_kernel.json or BENCH_e2e.json "
        "per --suite)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the committed report instead of "
        "writing; exit 1 on a regression beyond --tolerance",
    )
    bench.add_argument(
        "--tolerance", type=_positive_float, default=0.30, metavar="FRAC",
        help="allowed events/sec regression for --check (default 0.30)",
    )
    bench.add_argument(
        "--rebaseline", action="store_true",
        help="record this run as the new baseline instead of carrying the "
        "committed one forward",
    )
    bench.add_argument(
        "--profile", nargs="?", const=25, default=None, type=int, metavar="N",
        help="wrap the suite in cProfile and print the top-N functions by "
        "cumulative time (default N=25), writing <out>.profile.json; "
        "profiled runs never write the report or gate regressions",
    )
    bench.set_defaults(func=cmd_bench)

    analyze = sub.add_parser(
        "analyze",
        help="run one experiment instrumented and explain its tail latency",
        description="Runs the experiment with the per-op lifecycle log "
        "enabled, then prints per-op-type percentiles, slow-vs-median "
        "tier attribution, p99+ exemplars with outcome tags, and any "
        "SLO burn-rate report the harness produced.",
    )
    analyze.add_argument("experiment", help="experiment id (see `list`)")
    analyze.add_argument("--scale", choices=SCALES, default="smoke")
    analyze.add_argument(
        "--json", action="store_true",
        help="print the tail summary as JSON on stdout",
    )
    analyze.add_argument(
        "--oplog-out", metavar="PATH",
        help="also write the op records as JSON lines",
    )
    analyze.add_argument(
        "--exemplars", type=int, default=3, metavar="K",
        help="slowest exemplars to show per op type (default 3)",
    )
    analyze.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep configurations (0 = all cores)",
    )
    analyze.set_defaults(func=cmd_analyze)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("--scale", choices=SCALES, default="default")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
