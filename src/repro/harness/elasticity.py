"""The elasticity experiment: online MCD membership changes.

A production cache tier resizes under load; what matters operationally
is not that a resize causes a hit-rate dip, but how deep the dip is and
how fast the tier re-converges (ROADMAP item 5).  Every variant here
runs the same fixed-work stat+read workload on an elastic testbed,
measures per-round hit rates before and after a membership event at
round 0, and is compared against a no-resize baseline:

* ``baseline``           — ketama, no membership event.
* ``ketama-add``         — grow n -> n+1 mid-run; demand backfill only
  (misses on remapped keys consult the old owner during the forwarding
  window).  The dip must stay under 2x the ideal 1/(n+1) remap
  fraction and recover to within 5% of steady state.
* ``ketama-add-migrate`` — same, plus paced background migration; must
  pay measurably fewer post-resize misses than backfill alone.
* ``naive-add``          — the CRC32+mod selector under the same add:
  the modulus change reshuffles most of the key space (near-total dip).
* ``cold-restart``       — resize by restarting the tier: every cache
  is flushed at the event; the floor the elastic path must beat.
* ``drain-migrate``      — planned removal: out of the ring at the
  event, ranges migrated to successors, then detached.
* ``remove``             — unplanned removal (PR 3's crash semantics):
  instant detach, the node's ranges go cold.
* ``chaos-add``          — ketama-add with a seeded-random MCD crash
  schedule armed across the resize window: correctness (digest
  equality, zero mismatches) must survive faults *during* a resize.

One variant runs twice to prove schedule + seed => identical metrics,
and every round re-writes a per-client scratch file and reads it back,
so a stale pre-resize copy served from a forwarding-window peer would
surface as a mismatch.  The ``resize-*`` outcome-tag counts come from
the ``ketama-add`` job itself, run once more in-process with the op log
on — there is no separate instrumented workload.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import IMCaConfig
from repro.faults.schedule import FaultSchedule, MCD_CRASH, random_schedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.params import params_for
from repro.harness.parallel import pmap
from repro.harness.scenario import (
    Probe, create_files, hit_rate, hits_misses, payload, running_mean, testbed,
)
from repro.obs.context import make_observability
from repro.obs.export import metrics_fingerprint
from repro.workloads.base import drive

#: Variant order for jobs, series, and the EXPERIMENTS table.
VARIANTS = (
    "baseline",
    "ketama-add",
    "ketama-add-migrate",
    "naive-add",
    "cold-restart",
    "drain-migrate",
    "remove",
    "chaos-add",
)

#: Variants driven by the legacy positional selector.
_NAIVE = ("naive-add", "cold-restart")

#: A fault event lands "at the round boundary": one network tick after
#: the schedule is armed, well inside the first post-event round.
_EVENT_EPS = 1e-7


def _contents(p: dict, rank: int, j: int) -> bytes:
    return payload(p["file_size"], (41 * rank + 13 * j + 7) % 251)


def _scratch(p: dict, rank: int, r: int) -> bytes:
    """Round-varying scratch contents: proves read-after-write coherence
    across resize windows (a stale forwarded copy would mismatch)."""
    return payload(p["record_size"], (89 * rank + 29 * r + 3) % 251)


def _build(p: dict, variant: str, obs=None):
    """The elastic testbed plus (untimed) each client's private files
    and, last in its row, one scratch file rewritten per round."""
    selector = "crc32" if variant in _NAIVE else "ketama"
    tb = testbed(p, imca=IMCaConfig(selector=selector), resilient=True, obs=obs)
    tb.elastic.migrate_batch = p["migrate_batch"]
    tb.elastic.migrate_interval = p["migrate_interval"]
    files = []
    for rank in range(len(tb.clients)):
        files += [
            (rank, f"/elastic/r{rank}/f{j}", _contents(p, rank, j))
            for j in range(p["files_per_client"])
        ]
        files.append((rank, f"/elastic/r{rank}/scratch", _scratch(p, rank, -1)))
    return tb, drive(tb.sim, create_files(tb, files))


def _schedule(p: dict, variant: str, window: float) -> FaultSchedule | None:
    """The membership (and, for chaos, crash) events for one variant."""
    n = p["num_mcds"]
    if variant == "baseline":
        return None
    if variant in ("ketama-add", "naive-add", "cold-restart"):
        return FaultSchedule().mcd_add(_EVENT_EPS, warm_for=window)
    if variant == "ketama-add-migrate":
        return FaultSchedule().mcd_add(_EVENT_EPS, warm_for=window, migrate=True)
    if variant == "drain-migrate":
        return FaultSchedule().mcd_drain(
            _EVENT_EPS, mcd=n - 1, drain_for=window, migrate=True
        )
    if variant == "remove":
        return FaultSchedule().mcd_remove(_EVENT_EPS, mcd=n - 1)
    if variant == "chaos-add":
        # Seeded crashes across the resize window: random_schedule never
        # emits membership kinds, so the add composes conflict-free.
        sched = random_schedule(
            p["seed"],
            window * 4,
            rate=p["chaos_rate"],
            num_targets=n,
            kinds=(MCD_CRASH,),
            mean_downtime=p["mean_downtime"],
        )
        sched.mcd_add(_EVENT_EPS, warm_for=window)
        return sched
    raise ValueError(f"unknown variant {variant!r}")


def _variant_job(p: dict, variant: str, _repeat: int, obs=None) -> dict:
    """One variant end to end.  ``_repeat`` only distinguishes the
    determinism duplicate; the run depends solely on ``p`` + *variant*.

    Rounds are fixed work: every client stats + reads block 0 of each
    private file, then rewrites and re-reads its scratch file.  The
    membership event fires between round ``rounds_before - 1`` and
    round 0; the forwarding window spans ``window_rounds`` of the
    steady-state round time, so it closes *inside* the first post-event
    round — keys the window outlives must re-fill the hard way, which
    is exactly what background migration avoids.
    """
    tb, fds = _build(p, variant, obs)
    sim = tb.sim
    rec = p["record_size"]
    rb, ra = p["rounds_before"], p["rounds_after"]
    probe = Probe(tb)
    marks: list[tuple[int, int]] = []

    def one_round(r: int):
        for rank in range(len(tb.clients)):
            for j, (path, fd) in enumerate(fds[rank][:-1]):
                expected = _contents(p, rank, j)
                yield from probe.stat(rank, path, len(expected))
                yield from probe.read(rank, fd, 0, expected[:rec])
            _spath, sfd = fds[rank][-1]
            sdata = _scratch(p, rank, r)
            yield from probe.write(rank, sfd, 0, sdata)
            yield from probe.read(rank, sfd, 0, sdata, timed=False)

    def mark():
        marks.append(hits_misses(tb, ("read", "stat")))

    def body():
        # Untimed warm-up: the cache reaches steady state.
        for r in range(p["warm_rounds"]):
            yield from one_round(-1 - r)
        t0 = sim.now
        mark()
        for r in range(rb):
            yield from one_round(r - rb)
            mark()
        round_time = (sim.now - t0) / rb
        window = p["window_rounds"] * round_time
        sched = _schedule(p, variant, window)
        if sched is not None:
            tb.arm_faults(sched.shifted(sim.now))
            if variant == "cold-restart":
                # A tier restart loses every cached byte at once.
                for m in tb.membership.members.values():
                    m.daemon.engine.flush_all()
            yield sim.timeout(10 * _EVENT_EPS)
        for r in range(ra):
            yield from one_round(r)
            mark()

    drive(sim, body())
    mcc = tb.mcclient_stats()
    return {
        "rates": [hit_rate(b, a) for a, b in zip(marks, marks[1:])],
        "post_misses": marks[-1][1] - marks[rb][1],
        "read_lat": running_mean(probe.read_lat),
        "fingerprint": probe.fingerprint,
        "mismatches": probe.mismatches,
        "errors": probe.errors,
        "metrics_hash": metrics_fingerprint(tb.snapshot_metrics()),
        "mc": {
            k: mcc.get(k, 0)
            for k in ("forward_probes", "backfill_hits", "backfill_copies", "window_writes")
        },
        "elastic": dict(tb.obs.registry.component("elastic").counters.values),
        "members": {i: m.state for i, m in sorted(tb.membership.members.items())},
    }


def _dip(row: dict, rb: int) -> tuple[float, float, float]:
    """(steady-state rate, dip depth, final rate) for one variant."""
    pre = sum(row["rates"][:rb]) / rb
    after = row["rates"][rb:]
    return pre, pre - min(after), after[-1]


@register(
    "elastic",
    "ROADMAP item 5",
    "Elastic MCD membership: resize dips and recovery",
    "Grow and shrink the MCD tier mid-run: the ketama ring remaps ~1/n "
    "of the key space, demand backfill + background migration bound the "
    "hit-rate dip, and every variant (including under a chaos crash "
    "schedule) returns byte-identical contents vs the no-resize "
    "baseline.  Naive mod-hash and cold-restart resizes show why the "
    "elastic path exists.",
)
def run_elastic(scale: str = "default") -> ExperimentResult:
    p = params_for("elastic", scale)
    n = p["num_mcds"]
    rb, ra = p["rounds_before"], p["rounds_after"]
    result = ExperimentResult(
        "elastic",
        scale,
        x_name="round (0 = resize)",
        x_values=list(range(-rb, ra)),
    )

    jobs = [(p, v, 0) for v in VARIANTS] + [(p, "ketama-add", 1)]
    rows = pmap(_variant_job, jobs)
    repeat = rows.pop()
    by = dict(zip(VARIANTS, rows))
    for v in VARIANTS:
        result.series[v] = by[v]["rates"]
    result.extras["post_resize_misses"] = {v: by[v]["post_misses"] for v in VARIANTS}
    result.extras["read_latency"] = {v: by[v]["read_lat"] for v in VARIANTS}
    result.extras["elastic_counters"] = {v: by[v]["elastic"] for v in VARIANTS}
    result.extras["mcclient_counters"] = {v: by[v]["mc"] for v in VARIANTS}
    result.extras["member_states"] = {v: by[v]["members"] for v in VARIANTS}

    base = by["baseline"]
    result.check(
        "correctness across every membership change: all variants return "
        "byte-identical contents vs the no-resize baseline, zero mismatches",
        all(by[v]["fingerprint"] == base["fingerprint"] for v in VARIANTS)
        and all(by[v]["mismatches"] == 0 for v in VARIANTS),
        f"baseline fp={base['fingerprint'][:12]}; "
        f"fps={[by[v]['fingerprint'][:12] for v in VARIANTS]}",
    )
    result.check(
        "no op errors surface to the application in any variant "
        "(including crashes during the resize window)",
        all(by[v]["errors"] == 0 for v in VARIANTS),
        f"errors: {[(v, by[v]['errors']) for v in VARIANTS if by[v]['errors']]}",
    )

    ideal = 1.0 / (n + 1)
    pre, dip, last = _dip(by["ketama-add"], rb)
    result.extras["dips"] = {}
    for v in VARIANTS[1:]:
        pv, dv, lv = _dip(by[v], rb)
        result.extras["dips"][v] = {"steady": pv, "dip": dv, "final": lv}
    result.check(
        f"ketama resize dip depth < 2x the ideal 1/(n+1) = {ideal:.3f} remap",
        dip < 2 * ideal
        and result.extras["dips"]["ketama-add-migrate"]["dip"] < 2 * ideal,
        f"backfill dip={dip:.3f}, migrate dip="
        f"{result.extras['dips']['ketama-add-migrate']['dip']:.3f} "
        f"(bound {2 * ideal:.3f})",
    )
    recov = {v: result.extras["dips"][v] for v in
             ("ketama-add", "ketama-add-migrate", "drain-migrate")}
    result.check(
        "ketama variants recover to within 5% of the steady-state hit rate",
        all(d["final"] >= 0.95 * d["steady"] for d in recov.values()),
        ", ".join(f"{v}: {d['final']:.3f}/{d['steady']:.3f}" for v, d in recov.items()),
    )
    naive_dip = result.extras["dips"]["naive-add"]["dip"]
    cold_dip = result.extras["dips"]["cold-restart"]["dip"]
    result.check(
        "the naive mod-hash resize shows a near-total dip and a tier "
        "restart loses everything — both far above the ketama dip",
        naive_dip >= p["naive_dip_min"]
        and cold_dip >= p["cold_dip_min"]
        and naive_dip > dip
        and cold_dip > dip,
        f"naive dip={naive_dip:.3f} (>= {p['naive_dip_min']}), "
        f"cold dip={cold_dip:.3f} (>= {p['cold_dip_min']}), ketama dip={dip:.3f}",
    )
    bf, mig = by["ketama-add"]["post_misses"], by["ketama-add-migrate"]["post_misses"]
    result.check(
        "background migration pays measurably fewer post-resize misses "
        "than demand backfill alone",
        mig < bf,
        f"migrate={mig} misses vs backfill-only={bf}",
    )
    dr, rm = by["drain-migrate"]["post_misses"], by["remove"]["post_misses"]
    result.check(
        "a planned drain costs no more than an unplanned remove",
        dr <= rm,
        f"drain={dr} misses vs remove={rm}",
    )
    result.check(
        "identical schedule + seed reproduce identical metrics",
        repeat["metrics_hash"] == by["ketama-add"]["metrics_hash"]
        and repeat["fingerprint"] == by["ketama-add"]["fingerprint"],
        f"metrics hash {by['ketama-add']['metrics_hash'][:12]} == "
        f"{repeat['metrics_hash'][:12]}",
    )
    result.check(
        "the machinery actually ran: forwarding probes during the add "
        "window, keys migrated in both migrate variants, lifecycle states "
        "settle (add -> live, drain/remove -> detached)",
        by["ketama-add"]["mc"]["forward_probes"] > 0
        and by["ketama-add-migrate"]["elastic"].get("migrated_keys", 0) > 0
        and by["drain-migrate"]["elastic"].get("migrated_keys", 0) > 0
        and by["ketama-add"]["members"].get(n) == "live"
        and by["drain-migrate"]["members"][n - 1] == "detached"
        and by["remove"]["members"][n - 1] == "detached",
        f"probes={by['ketama-add']['mc']['forward_probes']}, migrated="
        f"{by['ketama-add-migrate']['elastic'].get('migrated_keys', 0)}/"
        f"{by['drain-migrate']['elastic'].get('migrated_keys', 0)}, states="
        f"{by['ketama-add']['members']}",
    )

    # The ketama-add job again, in-process with tracing + op log:
    # resize-window ops carry ``resize-forward`` / ``resize-backfill`` /
    # ``resize-window-write`` outcome tags, so ``repro analyze`` can
    # attribute the window's tail.
    obs = make_observability("elastic", trace=True, oplog=True)
    _variant_job(p, "ketama-add", 0, obs)
    assert obs.oplog is not None
    tags = dict(
        Counter(t for r in obs.oplog.records for t in r.tags if t.startswith("resize-"))
    )
    result.extras["resize_tags"] = tags
    result.check(
        "resize-window ops carry outcome tags for tail attribution",
        tags.get("resize-forward", 0) > 0,
        f"tag counts: {tags}",
    )
    result.notes.append(
        "The forwarding window closes inside the first post-resize round, "
        "so demand backfill alone leaves late-touched remapped keys to "
        "re-fill from the servers; background migration copies them first."
    )
    result.notes.append(
        "Scratch files are rewritten and re-read every round: a stale "
        "pre-resize copy served from a window peer would break digest "
        "equality, so the purge fan-out invariant is load-bearing here."
    )
    return result
