"""Motivation-section experiments beyond the figures.

§3 motivates IMCa with data-center workloads — many small files and
popularity-skewed access.  These experiments quantify those claims on
the reproduction: small-file latency/throughput and Zipf trace replay
across the three system configurations.
"""

from __future__ import annotations

from repro.cluster import TestbedConfig
from repro.harness.experiment import ExperimentResult, register
from repro.harness.params import params_for
from repro.harness.report import pct_change
from repro.harness.sweep import Point, column, sweep
from repro.util.units import KiB
from repro.workloads.trace import TraceConfig


@register(
    "motivation-smallfiles",
    "§3 (small files)",
    "Small-file read/stat stress across configurations",
    "N clients stat+read a set of small files: IMCa's combined stat and "
    "block cache beats NoCache; Lustre's striping cannot help small files.",
)
def run_smallfiles(scale: str = "default") -> ExperimentResult:
    p = params_for("motivation-smallfiles", scale)
    configs = ["NoCache", "IMCa (2 MCD)", "Lustre-4DS"]
    result = ExperimentResult(
        "motivation-smallfiles", scale, x_name="configuration", x_values=configs
    )
    n = p["clients"]
    files = dict(num_files=p["files"], file_size=4 * KiB)
    rows = sweep({
        "configuration": [
            Point("gluster", TestbedConfig(num_clients=n), "smallfiles", files),
            Point("gluster", TestbedConfig(num_clients=n, num_mcds=2), "smallfiles", files),
            Point("lustre", TestbedConfig(num_clients=n, num_data_servers=4), "smallfiles", files),
        ]
    })["configuration"]
    lat = column(result, "per-file latency", rows, "file_latency")
    column(result, "files/s (aggregate)", rows, "files_per_s")

    red = pct_change(lat[0], lat[1])
    result.check(
        "IMCa cuts small-file stat+read latency vs NoCache",
        red >= 25,
        f"reduction={red:.0f}%",
    )
    result.check(
        "striping does not rescue Lustre on small files (IMCa wins)",
        lat[1] < lat[2],
        f"imca={lat[1]:.3g}s lustre={lat[2]:.3g}s",
    )
    return result


@register(
    "motivation-trace",
    "§1/§3 (data-center access)",
    "Zipf-trace replay: ops/s and hit rates across configurations",
    "A popularity-skewed read-mostly trace replayed against NoCache and "
    "IMCa: the cache bank absorbs the hot set and lifts throughput.",
)
def run_trace(scale: str = "default") -> ExperimentResult:
    p = params_for("motivation-trace", scale)
    configs = ["NoCache", "IMCa (2 MCD)"]
    result = ExperimentResult(
        "motivation-trace", scale, x_name="configuration", x_values=configs
    )
    trace = dict(
        cfg=TraceConfig(
            num_files=p["files"],
            operations=p["operations"],
            read_ratio=0.9,
            stat_ratio=0.2,
        )
    )
    rows = sweep({
        "configuration": [
            Point("gluster", TestbedConfig(num_clients=p["clients"], num_mcds=m), "trace", trace)
            for m in (0, 2)
        ]
    })["configuration"]
    ops_rate = column(result, "ops/s", rows, "ops_per_s")
    column(result, "mean read latency", rows, "read_latency")
    stat_lat = column(result, "mean stat latency", rows, "stat_latency")
    cm = rows[1]["cm"]
    hits = cm.get("read_hits", 0) + cm.get("stat_hits", 0)
    misses = cm.get("read_misses", 0) + cm.get("stat_misses", 0)
    hit_rate = hits / max(1, hits + misses)
    result.extras["imca_hit_rate"] = hit_rate

    result.check(
        "IMCa lifts trace throughput over NoCache",
        ops_rate[1] > ops_rate[0],
        f"imca={ops_rate[1]:.0f} ops/s nocache={ops_rate[0]:.0f} ops/s",
    )
    result.check(
        "stat latency drops under IMCa (hot :stat entries)",
        stat_lat[1] < stat_lat[0],
        f"imca={stat_lat[1]:.3g}s nocache={stat_lat[0]:.3g}s",
    )
    result.check(
        "the Zipf hot set yields a high IMCa hit rate (>= 60%)",
        hit_rate >= 0.60,
        f"hit rate={hit_rate:.2f}",
    )
    return result
