"""The hotspot experiment: replicated hot-key caching in the MCD tier.

The paper's single-copy key->MCD mapping pins every hot key to exactly
one daemon — Fig 10 shows the consequence (one MCD serialises all the
synchronized readers).  ``IMCaConfig.replicas = R`` stores each key on
R distinct MCDs; reads spread over the replicas while writes and purges
fan out to all of them.  Three passes quantify the payoff:

1. **Zipf load sweep** (the figure): replay a popularity-skewed trace
   per (skew, R) and read per-MCD load off the engine counters.  At
   skew >= 0.99 the max/mean load imbalance must strictly decrease as
   R grows 1 -> 2 -> 3.  R=1 runs must record *zero* ``replica_*``
   client metrics (at R=1 every key's owner list is one daemon).
2. **Hot-key hammer**: many clients stat+read one file in lockstep;
   the p99 stat latency must drop at the highest R vs R=1 (the hot
   key's queue is split over R daemons).
3. **Degraded replica**: with R=2, crash one MCD mid-run.  Every read
   must stay byte-identical to the known payloads (the surviving
   replica or the server path serves it) and the hit rate must hold
   well above the unreplicated run with the same daemon dead.

Pass 3 is the coherence argument made operational: reads may touch any
replica only because every SMCache write/purge reaches all of them.
"""

from __future__ import annotations

import math

from repro.cluster import ResilienceConfig, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.core.keys import data_key, stat_key
from repro.faults.schedule import FaultSchedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.parallel import pmap
from repro.harness.params import params_for
from repro.obs.context import make_observability
from repro.obs.tail import render_why_slow, tail_summary
from repro.workloads.base import drive, run_clients
from repro.workloads.trace import TraceConfig, replay_trace


def _p99(samples: list[float]) -> float:
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


def _build(p: dict, replicas: int, num_clients: int):
    return build_gluster_testbed(
        TestbedConfig(
            num_clients=num_clients,
            num_mcds=p["num_mcds"],
            mcd_memory=p["mcd_memory"],
            imca=IMCaConfig(replicas=replicas),
        )
    )


def _replica_counters(tb) -> dict[str, int]:
    return {
        k: v for k, v in tb.mcclient_stats().items() if k.startswith("replica_")
    }


# --------------------------------------------------------------------------- #
# Pass 1: Zipf trace sweep over (skew, R)
# --------------------------------------------------------------------------- #
def _sweep_job(p: dict, skew: float, replicas: int) -> dict:
    """One sweep point: replay the trace, report per-MCD load imbalance."""
    tb = _build(p, replicas, p["num_clients"])
    cfg = TraceConfig(
        num_files=p["num_files"],
        zipf_s=skew,
        read_ratio=p["read_ratio"],
        stat_ratio=p["stat_ratio"],
        size_choices=(p["trace_file_size"],),
        record_size=p["record_size"],
        operations=p["operations"],
        seed=p["seed"],
    )
    res = replay_trace(tb.sim, tb.clients, cfg)
    loads = [mcd.engine.stat_dict().get("cmd_get", 0) for mcd in tb.mcds]
    mean = sum(loads) / len(loads)
    return {
        "loads": loads,
        "imbalance": max(loads) / mean if mean else 0.0,
        "stat_lat": res.stat_latency.mean,
        "read_lat": res.read_latency.mean,
        "replica_counters": _replica_counters(tb),
    }


# --------------------------------------------------------------------------- #
# Pass 2: hot-key hammer (tail latency)
# --------------------------------------------------------------------------- #
def _hot_job(p: dict, replicas: int) -> dict:
    """All clients stat+read one hot file in lockstep; pooled latencies."""
    tb = _build(p, replicas, p["hot_clients"])
    sim = tb.sim
    rec = p["record_size"]
    path = "/hot/victim"
    data = bytes(i % 251 for i in range(p["hot_file_size"]))
    fds: list[int] = []

    def setup():
        fd = yield from tb.clients[0].create(path)
        yield from tb.clients[0].write(fd, 0, len(data), data)
        fds.append(fd)
        for c in tb.clients[1:]:
            fds.append((yield from c.open(path)))
        # Warm every replica (pushes fan out, so once per client is
        # ample): the timed loop then measures pure MCD service.
        for rank, c in enumerate(tb.clients):
            yield from c.stat(path)
            yield from c.read(fds[rank], 0, rec)

    drive(sim, setup())
    stat_lats: list[float] = []
    read_lats: list[float] = []

    def body(client, rank, barrier):
        yield barrier.wait()
        for _ in range(p["hot_rounds"]):
            t0 = sim.now
            yield from client.stat(path)
            stat_lats.append(sim.now - t0)
            t0 = sim.now
            yield from client.read(fds[rank], 0, rec)
            read_lats.append(sim.now - t0)

    run_clients(sim, tb.clients, body)
    return {
        "stat_p99": _p99(stat_lats),
        "read_p99": _p99(read_lats),
        "stat_mean": sum(stat_lats) / len(stat_lats),
        "samples": len(stat_lats),
    }


# --------------------------------------------------------------------------- #
# Pass 2b: instrumented hot-key hammer (per-op attribution)
# --------------------------------------------------------------------------- #
def _hot_instrumented(p: dict, replicas: int) -> tuple[dict, object]:
    """The pass-2 hammer again at the highest R, with the op log on:
    every stat/read becomes a lifecycle record, so the tail analyzer
    can attribute the hot key's p99 to a tier and the outcome tags
    prove which path (hot tier / MCD / server) served each op.

    Runs in-process (never pmapped), so the op records are identical
    under any ``--jobs N``.
    """
    obs = make_observability("hotspot", trace=True, oplog=True)
    tb = build_gluster_testbed(
        TestbedConfig(
            num_clients=p["hot_clients"],
            num_mcds=p["num_mcds"],
            mcd_memory=p["mcd_memory"],
            imca=IMCaConfig(replicas=replicas),
        ),
        obs=obs,
    )
    sim = tb.sim
    rec = p["record_size"]
    path = "/hot/victim"
    data = bytes(i % 251 for i in range(p["hot_file_size"]))
    fds: list[int] = []

    def setup():
        fd = yield from tb.clients[0].create(path)
        yield from tb.clients[0].write(fd, 0, len(data), data)
        fds.append(fd)
        for c in tb.clients[1:]:
            fds.append((yield from c.open(path)))
        for rank, c in enumerate(tb.clients):
            yield from c.stat(path)
            yield from c.read(fds[rank], 0, rec)

    drive(sim, setup())
    mark = len(obs.oplog.records) if obs.oplog is not None else 0

    def body(client, rank, barrier):
        yield barrier.wait()
        for _ in range(p["hot_rounds"]):
            yield from client.stat(path)
            yield from client.read(fds[rank], 0, rec)

    run_clients(sim, tb.clients, body)
    measured = list(obs.oplog.records)[mark:] if obs.oplog is not None else []
    reads = [r for r in measured if r.op == "client.read"]
    stats = [r for r in measured if r.op == "client.stat"]
    outcome_tags = (
        "read-hit", "read-partial-fill", "read-miss", "read-uncacheable",
        "stat-hot-hit", "stat-mcd-hit", "stat-miss",
    )
    tagged = sum(
        1 for r in reads + stats if any(t in outcome_tags for t in r.tags)
    )
    return {
        "ops": len(measured),
        "reads": len(reads),
        "stats": len(stats),
        "tagged": tagged,
        "tail": tail_summary(obs.oplog) if obs.oplog is not None else {},
    }, tb


# --------------------------------------------------------------------------- #
# Pass 3: degraded replica (coherence + absorption)
# --------------------------------------------------------------------------- #
def _payload(j: int, size: int) -> bytes:
    phase = (41 * j + 7) % 251
    return bytes((phase + i) % 256 for i in range(size))


def _degraded_job(p: dict, replicas: int, kill: bool) -> dict:
    """Read known payloads with one MCD dead (or healthy, as reference)."""
    res = ResilienceConfig(
        mcd_timeout=p["mcd_timeout"],
        mcd_retries=0,
        cooldown=p["cooldown"],
        eject_after=2,
        seed=p["seed"],
    )
    tb = build_gluster_testbed(
        TestbedConfig(
            num_clients=p["deg_clients"],
            num_mcds=p["num_mcds"],
            mcd_memory=p["mcd_memory"],
            imca=IMCaConfig(replicas=replicas),
            resilience=res,
        )
    )
    sim = tb.sim
    rec = p["record_size"]
    size = p["deg_file_size"]
    paths = [f"/hot/deg/f{j}" for j in range(p["deg_files"])]
    tables: list[dict[int, int]] = []

    def setup():
        for j, path in enumerate(paths):
            fd = yield from tb.clients[0].create(path)
            data = _payload(j, size)
            yield from tb.clients[0].write(fd, 0, len(data), data)
            yield from tb.clients[0].close(fd)
        for c in tb.clients:
            fds = {}
            for j, path in enumerate(paths):
                fds[j] = yield from c.open(path)
            tables.append(fds)
        # Warm the bank once; fan-out means every replica holds the data.
        for j, path in enumerate(paths):
            yield from tb.clients[0].stat(path)
            for off in range(0, size, rec):
                yield from tb.clients[0].read(tables[0][j], off, rec)

    drive(sim, setup())
    if kill:
        # Kill the daemon that primaries the most read keys — killing an
        # arbitrary index could hit one that owns none of this (small)
        # working set, which would prove nothing.
        mc = tb.cmcaches[0].mc
        owned = [0] * len(tb.mcds)
        for path in paths:
            owned[mc.owners(stat_key(path))[0]] += 1
            for off in range(0, size, rec):
                owned[mc.owners(data_key(path, off))[0]] += 1
        victim = owned.index(max(owned))
        sched = FaultSchedule()
        sched.mcd_crash(0.0, mcd=victim, down_for=1e6)  # never recovers
        tb.arm_faults(sched.shifted(sim.now))
    base = tb.cm_stats()
    counts = {"mismatches": 0, "errors": 0}

    def body(client, rank, barrier):
        yield barrier.wait()
        for _ in range(p["deg_rounds"]):
            for j, path in enumerate(paths):
                expected = _payload(j, size)
                try:
                    st = yield from client.stat(path)
                    if st.size != size:
                        counts["mismatches"] += 1
                    for off in range(0, size, rec):
                        r = yield from client.read(tables[rank][j], off, rec)
                        if r.data != expected[off : off + rec]:
                            counts["mismatches"] += 1
                except Exception:
                    counts["errors"] += 1

    run_clients(sim, tb.clients, body)
    cm = tb.cm_stats()
    hits = cm.get("read_hits", 0) - base.get("read_hits", 0)
    misses = cm.get("read_misses", 0) - base.get("read_misses", 0)
    return {
        **counts,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


# --------------------------------------------------------------------------- #
# The experiment
# --------------------------------------------------------------------------- #
@register(
    "hotspot",
    "§5.5/§7 extension",
    "Replicated hot-key caching: load flattening and tail latency",
    "Store each key on R distinct MCDs (reads spread, writes/purges fan "
    "out): Zipf hot-key load imbalance flattens as R grows, the hot-key "
    "p99 drops, and with a replica killed mid-run contents stay "
    "byte-identical while the hit rate holds.",
)
def run_hotspot(scale: str = "default") -> ExperimentResult:
    p = params_for("hotspot", scale)
    rs = p["replica_counts"]
    result = ExperimentResult("hotspot", scale, x_name="replicas R", x_values=rs)

    # ---- pass 1: Zipf sweep ----------------------------------------------
    grid = [(skew, r) for skew in p["skews"] for r in rs]
    rows = pmap(_sweep_job, [(p, skew, r) for skew, r in grid])
    by_point = dict(zip(grid, rows))
    for skew in p["skews"]:
        result.series[f"load max/mean (zipf {skew})"] = [
            by_point[(skew, r)]["imbalance"] for r in rs
        ]
    hot_skews = [s for s in p["skews"] if s >= 0.99]
    flattens = all(
        all(
            by_point[(skew, a)]["imbalance"] > by_point[(skew, b)]["imbalance"]
            for a, b in zip(rs, rs[1:])
        )
        for skew in hot_skews
    )
    result.check(
        "per-MCD load imbalance strictly decreases with R at every "
        "skew >= 0.99",
        flattens,
        "; ".join(
            f"zipf {skew}: "
            + " -> ".join(f"{by_point[(skew, r)]['imbalance']:.2f}" for r in rs)
            for skew in p["skews"]
        ),
    )
    off_counters = {
        (skew, r): by_point[(skew, r)]["replica_counters"]
        for skew, r in grid
        if r == 1
    }
    result.check(
        "R=1 records zero replica_* client metrics (owner lists of one)",
        all(not any(c.values()) for c in off_counters.values()),
        f"counters at R=1: {sorted(set().union(*(c for c in off_counters.values())))or 'none'}",
    )
    on = by_point[(p["skews"][-1], rs[-1])]["replica_counters"]
    result.check(
        "R>1 surfaces replica read-spread and write fan-out metrics in obs",
        on.get("replica_reads", 0) > 0 and on.get("replica_writes", 0) > 0,
        f"R={rs[-1]} counters: { {k: on[k] for k in sorted(on)} }",
    )

    # ---- pass 2: hot-key hammer ------------------------------------------
    hot_rows = pmap(_hot_job, [(p, r) for r in rs])
    result.series["hot-key stat p99"] = [row["stat_p99"] for row in hot_rows]
    result.extras["hot_key"] = {
        "clients": p["hot_clients"],
        "stat_p99": [row["stat_p99"] for row in hot_rows],
        "read_p99": [row["read_p99"] for row in hot_rows],
        "stat_mean": [row["stat_mean"] for row in hot_rows],
    }
    result.check(
        f"hot-key stat p99 drops at R={rs[-1]} vs R=1 (queue split over "
        "replicas)",
        hot_rows[-1]["stat_p99"] < hot_rows[0]["stat_p99"],
        f"p99: R=1 {hot_rows[0]['stat_p99']:.3g}s -> "
        f"R={rs[-1]} {hot_rows[-1]['stat_p99']:.3g}s "
        f"({hot_rows[0]['samples']} samples each)",
    )

    # ---- pass 2b: instrumented hammer (per-op attribution) ---------------
    inst, inst_tb = _hot_instrumented(p, rs[-1])
    result.extras["tail"] = inst["tail"]
    result.extras["why_slow"] = render_why_slow(inst["tail"])
    expected = p["hot_clients"] * p["hot_rounds"]
    result.check(
        "per-op records cover the instrumented hammer: one record per "
        "stat/read, every one carrying an outcome tag",
        inst["reads"] == expected
        and inst["stats"] == expected
        and inst["tagged"] == inst["reads"] + inst["stats"],
        f"{inst['stats']} stats + {inst['reads']} reads recorded "
        f"(expected {expected} each); {inst['tagged']} tagged",
    )

    # ---- pass 3: degraded replica ----------------------------------------
    deg = pmap(
        _degraded_job,
        [(p, 1, True), (p, 2, True), (p, 2, False)],
    )
    deg_r1, deg_r2, healthy_r2 = deg
    result.extras["degraded"] = {
        "hit_rate_r1_dead": deg_r1["hit_rate"],
        "hit_rate_r2_dead": deg_r2["hit_rate"],
        "hit_rate_r2_healthy": healthy_r2["hit_rate"],
    }
    result.check(
        "with one replica killed (R=2), reads stay byte-identical to the "
        "known payloads and no errors surface",
        deg_r2["mismatches"] == 0 and deg_r2["errors"] == 0,
        f"mismatches={deg_r2['mismatches']} errors={deg_r2['errors']}",
    )
    result.check(
        "the surviving replicas absorb the dead daemon: degraded R=2 hit "
        "rate beats degraded R=1",
        deg_r2["hit_rate"] > deg_r1["hit_rate"],
        f"R=2 dead: {deg_r2['hit_rate']:.2f}, R=1 dead: "
        f"{deg_r1['hit_rate']:.2f}, R=2 healthy: {healthy_r2['hit_rate']:.2f}",
    )
    result.notes.append(
        "Replication is opt-in (IMCaConfig.replicas); R=1 is the same client "
        "code with owner lists of one, byte-identical to the unreplicated runs."
    )
    return result
