"""Wall-clock benchmark subsystem: the repo's performance trajectory.

``repro bench`` runs three fixed workloads against the discrete-event
kernel and writes ``BENCH_kernel.json`` — median-of-k events/sec plus
machine info and git sha — so every PR can prove (or disprove) a
speedup against the committed baseline:

* **kernel** — the bare DES kernel: processes yielding analytic
  station reservations on one shared :class:`FifoStation` (heap churn,
  process resume, timeout scheduling; no network, no harness).
* **hop** — the five-station network hop: concurrent senders pushing
  messages through ``CPU -> NIC tx -> wire -> NIC rx -> CPU``.
* **sweep** — a fixed fig6-style harness sweep (``fig6a`` at smoke
  scale) timed end to end.

``repro bench --suite e2e`` (:mod:`repro.bench.e2e`) times the whole
IMCa stack instead of the bare kernel — warm full-hit reads, forced
partial fills, hot-tier repeats — as simulated ops per wall-clock
second in ``BENCH_e2e.json``; the report shape is identical, so the
same baseline/check plumbing gates both suites.

``repro bench --suite scale`` (:mod:`repro.bench.scale`) measures the
kernel under large pending-event populations: 1k/10k/100k timer-storm
clients, one schedule entry per visit (heap) against the batched,
sharded tier2 variant, as ops/sec in ``BENCH_scale.json`` with a
``speedup_vs_heap`` section.

The workloads are frozen: any change to their shape invalidates the
trajectory.  Tune the kernel, not the benchmark.
"""

from repro.bench.e2e import BENCH_E2E_FILE, run_e2e_benchmarks
from repro.bench.kernel import (
    BENCH_FILE,
    BenchResult,
    attach_baseline,
    baseline_from,
    check_against_baseline,
    load_report,
    run_benchmarks,
    write_report,
)
from repro.bench.profiling import (
    profile_artifact,
    profile_suite,
    render_profile,
    top_functions,
)
from repro.bench.scale import BENCH_SCALE_FILE, run_scale_benchmarks

__all__ = [
    "BENCH_E2E_FILE",
    "BENCH_FILE",
    "BENCH_SCALE_FILE",
    "BenchResult",
    "attach_baseline",
    "baseline_from",
    "check_against_baseline",
    "load_report",
    "profile_artifact",
    "profile_suite",
    "render_profile",
    "run_benchmarks",
    "run_e2e_benchmarks",
    "run_scale_benchmarks",
    "top_functions",
    "write_report",
]
