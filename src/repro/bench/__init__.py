"""Wall-clock benchmark subsystem: the repo's performance trajectory.

``repro bench`` runs fixed workloads into one report, ``BENCH.json``
(:mod:`repro.bench.report`): median-of-k rates, exact scheduled-event
counts, one machine block, git sha, and a history of every report it
replaced.

* **kernel** — the bare DES kernel: processes yielding analytic
  station reservations on one shared :class:`FifoStation` (heap churn,
  process resume, timeout scheduling; no network, no harness).
* **hop** — the five-station network hop: concurrent senders pushing
  messages through ``CPU -> NIC tx -> wire -> NIC rx -> CPU``.
* **sweep** — a fixed fig6-style harness sweep (``fig6a`` at smoke
  scale) timed end to end.
* **scale_<n>_heap** — a 1k/10k/100k-client timer storm, one schedule
  entry per visit (:mod:`repro.bench.scale`).
* **scale_<n>_e2e** — 1k/100k/1M clients through the whole IMCa stack
  in independent cells of 1,000 clients.

Per-layer costs of the op path are measured by ``perf/`` instead; this
suite guards the kernel and the large-population regime.

The workloads are frozen: any change to their shape invalidates the
trajectory.  Tune the kernel, not the benchmark.
"""

from repro.bench.kernel import BenchResult
from repro.bench.profiling import (
    profile_artifact,
    profile_suite,
    render_profile,
    top_functions,
)
from repro.bench.report import (
    BENCH_FILE,
    append_history,
    check_against_baseline,
    load_report,
    run_benchmarks,
    write_report,
)

__all__ = [
    "BENCH_FILE",
    "BenchResult",
    "append_history",
    "check_against_baseline",
    "load_report",
    "profile_artifact",
    "profile_suite",
    "render_profile",
    "run_benchmarks",
    "top_functions",
    "write_report",
]
