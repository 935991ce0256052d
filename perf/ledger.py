"""The per-layer ledger: who spent the host time, who did how much work.

Layers are the ``src/repro`` packages the five workloads execute, plus
two pseudo-layers: ``stdlib`` (standard-library Python files and
built-ins nobody below could be charged for) and ``driver`` (the
benchmark's own files).

Three sources feed the ledger:

* a ``cProfile`` pass — a function belongs to the package its file
  sits in, ``tottime`` is its self time, and the profiler's caller
  edges stand in for parent spans: a built-in's time is charged to the
  layer of the function that called it;
* exact counter deltas read from the testbed's public ``stats``
  accessors around the untraced segments;
* the repository's own tracer (``Observability(trace=True)``), whose
  ``tier_totals()`` give simulated exclusive time per tier.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
from typing import Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep

REPRO_LAYERS = (
    "sim", "net", "memcached", "core", "gluster",
    "localfs", "oscache", "storage", "obs", "util",
)
LAYERS = REPRO_LAYERS + ("stdlib", "driver")

#: Named entry points: metric stem -> (module, qualified name).
ENTRY_POINTS = {
    "sim.run_loop": ("repro.sim.core", "Simulator._run_loop"),
    "sim.station_run": ("repro.sim.station", "FifoStation.run"),
    "net.endpoint_call": ("repro.net.rpc", "Endpoint.call"),
    "net.transfer": ("repro.net.fabric", "Network.transfer"),
    "memcached.client_get": ("repro.memcached.client", "MemcacheClient.get"),
    "memcached.client_get_multi": ("repro.memcached.client", "MemcacheClient.get_multi"),
    "memcached.client_set": ("repro.memcached.client", "MemcacheClient.set"),
    "memcached.client_delete_multi": (
        "repro.memcached.client", "MemcacheClient.delete_multi",
    ),
    "memcached.engine_get": ("repro.memcached.engine", "MemcachedEngine.get"),
    "memcached.engine_set": ("repro.memcached.engine", "MemcachedEngine.set"),
    "core.cm_read": ("repro.core.cmcache", "CMCacheXlator.read"),
    "core.cm_stat": ("repro.core.cmcache", "CMCacheXlator.stat"),
    "core.sm_read": ("repro.core.smcache", "SMCacheXlator.read"),
    "core.sm_write": ("repro.core.smcache", "SMCacheXlator.write"),
    "gluster.server_fop": ("repro.gluster.server", "GlusterServer._handle"),
    "localfs.read": ("repro.localfs.fs", "LocalFS.read"),
}

#: Tracer tier -> the layer metric that reports it.
TIER_METRICS = {
    "client": "gluster.client_tier_sim_us_per_op",
    "network": "net.tier_sim_us_per_op",
    "mcd": "memcached.tier_sim_us_per_op",
    "server": "gluster.server_tier_sim_us_per_op",
    "disk": "storage.tier_sim_us_per_op",
}


#: Simulated latency percentiles: name -> (op kind, percentile); "op"
#: pools every operation, open and close included.
LATENCY_PERCENTILES = {
    f"sim_{kind}_{pct}_us": (kind, pct)
    for kind in ("op", "read", "stat", "write")
    for pct in ("p50", "p99")
}


# --------------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------------- #
def snapshot_counters(tb) -> dict[str, float]:
    """Cumulative counters of every layer, read through the testbed's
    public ``stats`` / ``*_stats()`` accessors."""
    out: dict[str, float] = {}

    def put(prefix: str, stats: dict, *names: str) -> None:
        for name in names:
            key = f"{prefix}.{name}"
            out[key] = out.get(key, 0) + stats.get(name, 0)

    put("net", tb.net.stats.as_dict(), "messages", "bytes")
    callers = list(tb.client_endpoints)
    callers.extend(sm.mc.endpoint for sm in tb.smcaches if sm is not None)
    for ep in callers:
        put("rpc", ep.stats.as_dict(), "errors", "timeouts", "retries")
    put("mcd", tb.mcd_stats(), "cmd_get", "cmd_set", "get_hits", "get_misses", "evictions")
    put(
        "cm", tb.cm_stats(),
        "read_hits", "read_partial_hits", "read_misses",
        "stat_hits", "stat_misses", "blocks_requested",
    )
    put("sm", tb.sm_stats(), "block_pushes", "stat_pushes", "write_readbacks", "purged_blocks")
    for server in tb.servers:
        stats = server.stats.as_dict()
        out["server.fops"] = out.get("server.fops", 0) + sum(
            v for k, v in stats.items() if k.startswith("fop_")
        )
        fs = server.fs
        put("fs", fs.stats.as_dict(), "meta_hits", "meta_misses")
        put("page", fs.page_cache.stats.as_dict(), "page_hits", "page_misses", "evictions")
        for disk in getattr(fs.device, "members", [fs.device]):
            put("disk", disk.stats.as_dict(), "seeks", "bytes")
    return out


def counter_deltas(before: dict, after: dict) -> dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def _share(part: float, *rest: float) -> float:
    total = part + sum(rest)
    return part / total if total else 0.0


def count_metrics(c: dict, ops: int, cal_us_per_event: float) -> dict[str, float]:
    """Turn counter deltas *c* over *ops* client operations into the
    count metrics."""
    reads = c["cm.read_hits"] + c["cm.read_partial_hits"] + c["cm.read_misses"]
    return {
        "sim.cal_us_per_event": cal_us_per_event,
        "net.messages_per_op": c["net.messages"] / ops,
        "net.bytes_per_op": c["net.bytes"] / ops,
        "net.rpc_errors": c["rpc.errors"] + c["rpc.timeouts"],
        "net.rpc_retries": c["rpc.retries"],
        "memcached.cmd_get_per_op": c["mcd.cmd_get"] / ops,
        "memcached.cmd_set_per_op": c["mcd.cmd_set"] / ops,
        "memcached.get_hit_rate": _share(c["mcd.get_hits"], c["mcd.get_misses"]),
        "memcached.evictions_per_op": c["mcd.evictions"] / ops,
        "core.cm_read_hit_rate": _share(
            c["cm.read_hits"], c["cm.read_partial_hits"], c["cm.read_misses"]
        ),
        "core.cm_stat_hit_rate": _share(c["cm.stat_hits"], c["cm.stat_misses"]),
        "core.cm_blocks_per_read": c["cm.blocks_requested"] / reads if reads else 0.0,
        "core.sm_block_pushes_per_op": c["sm.block_pushes"] / ops,
        "core.sm_stat_pushes_per_op": c["sm.stat_pushes"] / ops,
        "core.sm_readbacks_per_op": c["sm.write_readbacks"] / ops,
        "core.sm_purged_blocks_per_op": c["sm.purged_blocks"] / ops,
        "gluster.server_fops_per_op": c["server.fops"] / ops,
        "localfs.meta_hit_rate": _share(c["fs.meta_hits"], c["fs.meta_misses"]),
        "oscache.page_hit_rate": _share(c["page.page_hits"], c["page.page_misses"]),
        "oscache.evictions_per_op": c["page.evictions"] / ops,
        "storage.seeks_per_op": c["disk.seeks"] / ops,
        "storage.bytes_per_op": c["disk.bytes"] / ops,
    }


# --------------------------------------------------------------------------- #
# profile
# --------------------------------------------------------------------------- #
def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for a built-in."""
    if filename == "~":
        return None
    filename = os.path.abspath(filename)
    at = filename.find(_REPRO_MARK)
    if at >= 0:
        package = filename[at + len(_REPRO_MARK) :].split(os.sep, 1)[0]
        if package in REPRO_LAYERS:
            return package
    if filename.startswith(PERF_DIR + os.sep):
        return "driver"
    return "stdlib"


def _entry_key(module: str, qualname: str) -> tuple:
    """The profiler's key of a named entry point.  A change that renames
    or moves one fails the run here (``ImportError`` / ``AttributeError``)
    until :data:`ENTRY_POINTS` names the new place: its metrics must not
    quietly read 0, which is the best value a lower-is-better metric has."""
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_rows(profiler: cProfile.Profile, ops: int) -> dict:
    """Bucket the profile by layer and pick out the named entry points.

    For a generator a *call* is a frame entry: the first call and every
    resume, which is how the profiler counts them.
    """
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        # A built-in: charge each caller edge to the caller's layer.
        if not callers:
            self_s["stdlib"] += tt
            calls["stdlib"] += nc
        for (caller_file, _l, _n), (edge_nc, _ecc, edge_tt, _ect) in callers.items():
            owner = layer_of(caller_file) or "stdlib"
            self_s[owner] += edge_tt
            calls[owner] += edge_nc
    total = sum(self_s.values())
    entry_points = {}
    for stem, (module, qualname) in ENTRY_POINTS.items():
        row = stats.get(_entry_key(module, qualname))
        entry_points[stem] = {
            "calls_per_op": row[1] / ops if row else 0.0,
            "incl_share": row[3] / total if row else 0.0,
        }
    return {
        "total_self_s": total,
        "ops": ops,
        "layers": {
            layer: {
                "host_self_share": self_s[layer] / total,
                "calls_per_op": calls[layer] / ops,
            }
            for layer in LAYERS
        },
        "entry_points": entry_points,
    }


# --------------------------------------------------------------------------- #
# metric assembly
# --------------------------------------------------------------------------- #
def latency_percentiles(exact: dict) -> dict[str, float]:
    """Simulated latency percentiles, for the kinds the workload issued;
    a kind it never issues has no latency and is left out."""
    rows = exact["latency_us"]
    return {
        name: rows[kind][pct]
        for name, (kind, pct) in LATENCY_PERCENTILES.items()
        if kind in rows
    }


def end_to_end_values(plain: dict, setup_cal_s: float) -> dict[str, float]:
    """The end-to-end metrics of one workload: six that every workload
    reports, the latency percentiles of the kinds it issues, and the
    share of failed operations."""
    exact = plain["exact"]
    return {
        "setup_s": setup_cal_s,
        "host_ops_per_cal_s": plain["host"]["ops_per_cal_s"],
        "host_peak_rss_mb": plain["peak_rss_mb"],
        "events_per_op": exact["events_per_op"],
        "sim_ops_per_s": exact["sim_ops_per_s"],
        "sim_op_mean_us": exact["latency_us"]["op"]["mean"],
        **latency_percentiles(exact),
        "failed_op_share": plain["failed"] / plain["attempted"],
    }


def per_layer_values(plain: dict, obs: dict) -> dict[str, float]:
    """Every per-layer metric of one workload, from its plain pass
    (with profile) and its obs pass."""
    profile = plain["profile"]
    untraced_us_per_op = plain["host"]["cal_us_per_op"]
    values: dict[str, float] = {}
    for stem, row in (*profile["layers"].items(), *profile["entry_points"].items()):
        for key, value in row.items():
            values[f"{stem}.{key}"] = value
    values["profile.overhead_ratio"] = profile["host"]["cal_us_per_op"] / untraced_us_per_op
    values.update(
        count_metrics(
            plain["counters"], plain["exact"]["ops"], plain["host"]["cal_us_per_event"]
        )
    )
    tiers = obs["obs"]["tier_sim_us_per_op"]
    for tier, name in TIER_METRICS.items():
        values[name] = tiers.get(tier, 0.0)
    values["obs.overhead_ratio"] = obs["host"]["cal_us_per_op"] / untraced_us_per_op
    values["obs.spans_per_op"] = obs["obs"]["spans_per_op"]
    values["obs.spans_dropped"] = obs["obs"]["spans_dropped"]
    return values
