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

from repro.core.config import IMCaConfig
from repro.core.keys import data_key, stat_key
from repro.faults.schedule import FaultSchedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.parallel import pmap
from repro.harness.params import params_for
from repro.harness.scenario import (
    Probe, create_files, hit_rate, hits_misses, mean, open_files, p99, payload,
    testbed,
)
from repro.obs.context import make_observability
from repro.obs.tail import render_why_slow, tail_summary
from repro.workloads.base import drive, run_clients
from repro.workloads.trace import TraceConfig, replay_trace


def _replica_counters(tb) -> dict[str, int]:
    return {
        k: v for k, v in tb.mcclient_stats().items() if k.startswith("replica_")
    }


# --------------------------------------------------------------------------- #
# Pass 1: Zipf trace sweep over (skew, R)
# --------------------------------------------------------------------------- #
def _sweep_job(p: dict, skew: float, replicas: int, obs=None) -> dict:
    """One sweep point: replay the trace, report per-MCD load imbalance."""
    tb = testbed(p, imca=IMCaConfig(replicas=replicas), obs=obs)
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
    return {
        "loads": loads,
        "imbalance": max(loads) / mean(loads) if any(loads) else 0.0,
        "stat_lat": res.stat_latency.mean,
        "read_lat": res.read_latency.mean,
        "replica_counters": _replica_counters(tb),
    }


# --------------------------------------------------------------------------- #
# Pass 2: hot-key hammer (tail latency)
# --------------------------------------------------------------------------- #
def _hot_job(p: dict, replicas: int, obs=None) -> dict:
    """All clients stat+read one hot file in lockstep; pooled latencies.

    With an *obs* bundle every timed stat/read is also the bundle's
    last ``2 * samples`` op records (pass 2b reads them back).
    """
    tb = testbed(
        p, clients=p["hot_clients"], imca=IMCaConfig(replicas=replicas), obs=obs
    )
    sim = tb.sim
    path = "/hot/victim"
    data = payload(p["hot_file_size"], 0)
    head = data[: p["record_size"]]
    probe = Probe(tb)
    fds: list[int] = []

    def setup():
        created = yield from create_files(tb, [(0, path, data)])
        opened = yield from open_files(tb, [path], tb.clients[1:])
        fds.extend([created[0][0][1]] + [table[path] for table in opened])
        # Warm every replica (pushes fan out, so once per client is
        # ample): the timed loop then measures pure MCD service.
        for rank, c in enumerate(tb.clients):
            yield from c.stat(path)
            yield from c.read(fds[rank], 0, len(head))

    drive(sim, setup())

    def body(client, rank, barrier):
        yield barrier.wait()
        for _ in range(p["hot_rounds"]):
            yield from probe.stat(rank, path, len(data))
            yield from probe.read(rank, fds[rank], 0, head)

    run_clients(sim, tb.clients, body)
    return {
        "stat_p99": p99(probe.stat_lat),
        "read_p99": p99(probe.read_lat),
        "stat_mean": mean(probe.stat_lat),
        "samples": len(probe.stat_lat),
        **probe.counts(),
    }


# --------------------------------------------------------------------------- #
# Pass 3: degraded replica (coherence + absorption)
# --------------------------------------------------------------------------- #
def _degraded_job(p: dict, replicas: int, kill: bool, obs=None) -> dict:
    """Read known payloads with one MCD dead (or healthy, as reference)."""
    tb = testbed(
        p,
        clients=p["deg_clients"],
        imca=IMCaConfig(replicas=replicas),
        resilient=True,
        obs=obs,
    )
    sim = tb.sim
    rec = p["record_size"]
    size = p["deg_file_size"]
    paths = [f"/hot/deg/f{j}" for j in range(p["deg_files"])]
    contents = [payload(size, (41 * j + 7) % 251) for j in range(len(paths))]
    tables: list[dict[str, int]] = []

    def setup():
        yield from create_files(
            tb, [(0, path, data) for path, data in zip(paths, contents)], close=True
        )
        tables.extend((yield from open_files(tb, paths)))
        # Warm the bank once; fan-out means every replica holds the data.
        for path in paths:
            yield from tb.clients[0].stat(path)
            for off in range(0, size, rec):
                yield from tb.clients[0].read(tables[0][path], off, rec)

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
    base = hits_misses(tb)
    probe = Probe(tb)

    def body(client, rank, barrier):
        yield barrier.wait()
        for _ in range(p["deg_rounds"]):
            for path, expected in zip(paths, contents):
                yield from probe.stat(rank, path, size)
                for off in range(0, size, rec):
                    yield from probe.read(
                        rank, tables[rank][path], off, expected[off : off + rec]
                    )

    run_clients(sim, tb.clients, body)
    return {**probe.counts(), "hit_rate": hit_rate(hits_misses(tb), base)}


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
    # The pass-2 job again at the highest R, in-process (so the records
    # are identical under any ``--jobs N``) with the op log on: every
    # stat/read becomes a lifecycle record, so the tail analyzer can
    # attribute the hot key's p99 to a tier and the outcome tags prove
    # which path (hot tier / MCD / server) served each op.
    obs = make_observability("hotspot", trace=True, oplog=True)
    inst = _hot_job(p, rs[-1], obs)
    assert obs.oplog is not None
    measured = list(obs.oplog.records)[-2 * inst["samples"] :]
    reads = [r for r in measured if r.op == "client.read"]
    stats = [r for r in measured if r.op == "client.stat"]
    outcome_tags = (
        "read-hit", "read-partial-fill", "read-miss", "read-uncacheable",
        "stat-hot-hit", "stat-mcd-hit", "stat-miss",
    )
    tagged = sum(
        1 for r in reads + stats if any(t in outcome_tags for t in r.tags)
    )
    result.extras["tail"] = tail_summary(obs.oplog)
    result.extras["why_slow"] = render_why_slow(result.extras["tail"])
    expected = p["hot_clients"] * p["hot_rounds"]
    result.check(
        "per-op records cover the instrumented hammer: one record per "
        "stat/read, every one carrying an outcome tag",
        len(reads) == expected
        and len(stats) == expected
        and tagged == len(reads) + len(stats),
        f"{len(stats)} stats + {len(reads)} reads recorded "
        f"(expected {expected} each); {tagged} tagged",
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
