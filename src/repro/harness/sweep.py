"""One point shape for the figure sweeps.

Every §5 figure, and the ablation and motivation experiments built the
same way, is a table of points: a fresh NFS, GlusterFS[+IMCa] or Lustre
testbed built from one :class:`~repro.cluster.TestbedConfig`, driven
once by one of the ``workloads/`` benchmarks.  A :class:`Point` says which;
:func:`measure` runs it and returns the row.  An experiment lists its
points per series label and hands them to :func:`sweep`, whose one
:func:`~repro.harness.parallel.pmap` call runs them inline or over a
``--jobs`` pool; each point owns an isolated simulator, so the rows are
identical either way.  An instrumented pass is ``measure(point, obs)``
called in-process, so the CLI can export its artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster import (
    TestbedConfig,
    build_gluster_testbed,
    build_lustre_testbed,
    build_nfs_testbed,
)
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import pmap
from repro.workloads.iozone import run_iozone
from repro.workloads.latency import run_latency_bench
from repro.workloads.smallfiles import run_small_files
from repro.workloads.statbench import run_stat_bench
from repro.workloads.trace import replay_trace

TESTBEDS = {
    "nfs": build_nfs_testbed,
    "gluster": build_gluster_testbed,
    "lustre": build_lustre_testbed,
}

#: workload -> (benchmark function, the columns of its result).  Latency columns
#: hold one mean per record size, in the order the point asked for.
WORKLOADS = {
    "iozone": (run_iozone, lambda r: {
        "read_throughput": r.read_throughput,
        "write_throughput": r.write_throughput,
    }),
    "latency": (run_latency_bench, lambda r: {
        "read": [r.mean_read(size) for size in r.record_sizes],
        "write": [r.mean_write(size) for size in r.record_sizes],
    }),
    "stat": (run_stat_bench, lambda r: {"max_node_time": r.max_node_time}),
    "smallfiles": (run_small_files, lambda r: {
        "file_latency": r.per_file_latency.mean,
        "files_per_s": r.files_per_second,
    }),
    "trace": (replay_trace, lambda r: {
        "ops_per_s": r.ops_per_second,
        "read_latency": r.read_latency.mean,
        "stat_latency": r.stat_latency.mean,
    }),
}

#: The unit of every workload column (rendering only).
UNITS = {
    "read_throughput": "B/s",
    "write_throughput": "B/s",
    "read": "s",
    "write": "s",
    "max_node_time": "s",
    "file_latency": "s",
    "files_per_s": "files/s",
    "ops_per_s": "ops/s",
    "read_latency": "s",
    "stat_latency": "s",
}


@dataclass(frozen=True)
class Point:
    """One sweep point: a *system* testbed ("nfs", "gluster" or
    "lustre") built from *config*, driven by *workload* (a
    :data:`WORKLOADS` key) with keyword *args*."""

    system: str
    config: TestbedConfig
    workload: str
    args: dict


def measure(point: Point, obs=None) -> dict:
    """Build *point*'s testbed, run its workload, return the row.

    The row holds the workload's columns; a GlusterFS row adds the merged
    CMCache counters (``cm``), the merged MCD engine stats (``mcd``) and
    each MCD's cumulative ``total_items``.  Pass an observability bundle
    to instrument the run; its metrics registry is snapshotted at the end.
    """
    tb = TESTBEDS[point.system](point.config, obs=obs)
    bench, columns = WORKLOADS[point.workload]
    row = columns(bench(tb.sim, tb.clients, **point.args))
    if point.system == "gluster":
        row["cm"] = tb.cm_stats()
        row["mcd"] = tb.mcd_stats()
        row["total_items"] = [m.engine.stats.get("total_items") for m in tb.mcds]
        if obs is not None:
            tb.snapshot_metrics()
    return row


def sweep(points: dict[str, list[Point]]) -> dict[str, list[dict]]:
    """Measure every point in one :func:`pmap`; rows come back under
    their series label, in the order the points were listed."""
    flat = [pt for pts in points.values() for pt in pts]
    rows = iter(pmap(measure, [(pt,) for pt in flat]))
    return {label: [next(rows) for _ in pts] for label, pts in points.items()}


def column(
    result: ExperimentResult,
    label: str,
    rows: list[dict],
    name: str,
    index: Optional[int] = None,
) -> list[Any]:
    """Publish column *name* of *rows* as series *label*, in the
    column's unit.  A per-size column contributes its entry *index*,
    or, without one, all its entries in order."""
    values: list[Any] = []
    for row in rows:
        v = row[name]
        if index is not None:
            values.append(v[index])
        elif isinstance(v, list):
            values.extend(v)
        else:
            values.append(v)
    result.series[label] = values
    result.units[label] = UNITS[name]
    return values
