"""The chaos experiment: graceful degradation under injected faults.

§4.4's claim — "IMCa can transparently account for failures in MCDs" —
is exercised here with the :mod:`repro.faults` machinery in three
passes:

1. **Dead-MCD sweep** (the figure): with ``k`` of ``n`` MCDs crashed at
   the start of the measured phase (k = 0..n) plus a cache-off
   baseline, every configuration must return byte-identical file
   contents and stat sizes, the hit rate must fall roughly in
   proportion to the dead fraction, and with *all* MCDs dead latency
   must land back on the no-IMCa curve.
2. **Failure-rate sweep**: seeded-random crash/restart schedules at
   increasing rates; correctness holds at every rate, and the highest
   rate is run twice to prove schedule + seed ⇒ identical metrics.
3. **Phase pass** (instrumented): healthy → half-dead → recovered on
   one timeline, with per-phase latency/hit-rate recorded through the
   metrics registry and the usual tier breakdown attached.

Every pass drives the same private-file stat+read workload so numbers
are comparable across configurations.
"""

from __future__ import annotations

import math

from repro.core.config import IMCaConfig
from repro.faults.schedule import FaultSchedule, MCD_CRASH, random_schedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.params import params_for
from repro.harness.parallel import pmap
from repro.harness.scenario import (
    Probe, create_files, hit_rate, hits_misses, payload, running_mean, testbed,
)
from repro.obs.context import make_observability
from repro.obs.export import metrics_fingerprint, render_tier_breakdown
from repro.obs.slo import SloMonitor, SloSpec, render_slo_report
from repro.obs.tail import render_why_slow, tail_summary
from repro.workloads.base import drive, run_clients


# --------------------------------------------------------------------------- #
# Shared workload: per-client private files, stat+read measured phase
# --------------------------------------------------------------------------- #
def _contents(p: dict, rank: int, j: int) -> bytes:
    return payload(p["file_size"], (37 * rank + 11 * j + 5) % 251)


def _build(p: dict, num_mcds: int, *, clients=None, obs=None):
    """The chaos testbed plus its private files (untimed setup): returns
    ``(tb, fds)`` with ``fds[rank]`` the ``(path, fd)`` pairs of client
    *rank*."""
    tb = testbed(
        p,
        clients=clients,
        mcds=num_mcds,
        imca=IMCaConfig(replicas=p.get("replicas", 1) if num_mcds else 1),
        resilient=True,
        obs=obs,
    )
    files = [
        (rank, f"/chaos/r{rank}/f{j}", _contents(p, rank, j))
        for rank in range(len(tb.clients))
        for j in range(p["files_per_client"])
    ]
    return tb, drive(tb.sim, create_files(tb, files))


def _measure(tb, fds, p: dict, *, until: float = 0.0) -> dict:
    """The measured phase: every client stats and reads its own files.

    Fixed-work mode (``until == 0``) loops ``rounds`` times — used where
    runs must be byte-comparable.  Time-bounded mode loops until the
    deadline — used under random fault schedules.  Returns mean
    latencies, the probe's rank-ordered content fingerprint, and its
    op/error/mismatch counts against the known payloads.
    """
    sim = tb.sim
    rec = p["record_size"]
    per_file = p["file_size"] // rec
    probe = Probe(tb)

    def body(client, rank, barrier):
        yield barrier.wait()
        r = 0
        while (sim.now < until) if until else (r < p["rounds"]):
            for j, (path, fd) in enumerate(fds[rank]):
                expected = _contents(p, rank, j)
                yield from probe.stat(rank, path, len(expected))
                off = (r % per_file) * rec
                yield from probe.read(rank, fd, off, expected[off : off + rec])
            r += 1

    run_clients(sim, tb.clients, body)
    return {
        "fingerprint": probe.fingerprint,
        "stat_lat": running_mean(probe.stat_lat),
        "read_lat": running_mean(probe.read_lat),
        "hit_rate": hit_rate(hits_misses(tb)),
        **probe.counts(),
    }


# --------------------------------------------------------------------------- #
# Pass 1: dead-MCD sweep (pmap jobs)
# --------------------------------------------------------------------------- #
def _dead_mcd_job(p: dict, num_mcds: int, dead: int, obs=None) -> dict:
    """One sweep point: *dead* of *num_mcds* MCDs crash for the whole
    measured phase (num_mcds == 0 is the cache-off baseline)."""
    tb, fds = _build(p, num_mcds, obs=obs)
    if dead:
        sched = FaultSchedule()
        for i in range(dead):
            # Effectively forever: recovery lands after the run ends.
            sched.mcd_crash(0.0, mcd=i, down_for=1e6)
        tb.arm_faults(sched.shifted(tb.sim.now))
    return _measure(tb, fds, p)


# --------------------------------------------------------------------------- #
# Pass 2: random failure-rate sweep (pmap jobs)
# --------------------------------------------------------------------------- #
def _rate_job(p: dict, rate: float, _repeat: int, obs=None) -> dict:
    """One seeded-random crash/restart schedule at *rate* failures/s.

    ``_repeat`` only distinguishes determinism-check duplicates; the
    run itself depends solely on the schedule seed in ``p``.
    """
    n = p["num_mcds"]
    tb, fds = _build(p, n, obs=obs)
    sched = random_schedule(
        p["seed"],
        p["window"],
        rate=rate,
        num_targets=n,
        kinds=(MCD_CRASH,),
        mean_downtime=p["mean_downtime"],
    )
    injector = tb.arm_faults(sched.shifted(tb.sim.now)) if len(sched) else None
    out = _measure(tb, fds, p, until=tb.sim.now + p["window"])
    out["faults"] = len(sched)
    out["fault_log"] = len(injector.log) if injector else 0
    out["metrics_hash"] = metrics_fingerprint(tb.snapshot_metrics())
    out["schedule_hash"] = sched.fingerprint()
    return out


# --------------------------------------------------------------------------- #
# Pass 3: instrumented healthy → degraded → recovered phases
# --------------------------------------------------------------------------- #
def _slo_monitors(p: dict, phase_len: float) -> list[SloMonitor]:
    """Read- and stat-latency SLOs scaled to the phase timeline: the
    fast window catches the fault onset within a fraction of a phase,
    the slow window suppresses single-op blips."""
    s = p["slo"]
    return [
        SloMonitor(
            SloSpec(
                f"{op}-latency",
                op_prefix=f"client.{op}",
                objective=s["objective"],
                threshold=s[f"{op}_threshold"],
                fast_window=phase_len * s["fast_frac"],
                slow_window=phase_len * s["slow_frac"],
                burn_threshold=s["burn_threshold"],
                min_ops=s["min_ops"],
            )
        )
        for op in ("read", "stat")
    ]


def _phase_pass(p: dict, obs) -> tuple[dict, object, list[SloMonitor], dict]:
    """One timeline: half the MCDs die for the middle third and rejoin
    (cold + purged) for the last third; per-phase numbers go through
    the metrics registry, per-op records feed *obs*'s SLO monitors."""
    n = p["num_mcds"]
    tb, fds = _build(p, n, clients=1, obs=obs)
    sim = tb.sim
    phase_len = p["window"] / 3.0
    t0 = sim.now
    # Monitors attach after setup and before the measured phases, so
    # they observe exactly the phase-pass ops (the oplog itself also
    # retains the setup creates/writes for tail analysis).
    monitors = _slo_monitors(p, phase_len)
    assert obs.oplog is not None
    obs.oplog.monitors.extend(monitors)
    sched = FaultSchedule()
    for i in range(max(1, n // 2)):
        # Recover mid-phase-2: ejection cooldown, the purged rejoin and
        # cache re-warming all land *inside* the degraded phase, so the
        # recovered phase measures steady state again.
        sched.mcd_crash(phase_len, mcd=i, down_for=phase_len / 2)
    tb.arm_faults(sched.shifted(t0))

    comp = tb.obs.registry.component("chaos.phases")
    phases = ["healthy", "degraded", "recovered"]
    rec = p["record_size"]
    client = tb.clients[0]
    marks: list[tuple[int, int]] = []

    def body():
        # Re-read a hot working set (first block of each file) every
        # round: the phase hit rate then reflects *current* cache
        # health rather than the warm-up history of a rotating offset.
        for k, name in enumerate(phases):
            marks.append(hits_misses(tb))
            end = t0 + (k + 1) * phase_len
            while sim.now < end:
                for path, fd in fds[0]:
                    ts = sim.now
                    yield from client.stat(path)
                    comp.observe(f"{name}.stat_s", sim.now - ts)
                    ts = sim.now
                    yield from client.read(fd, 0, rec)
                    comp.observe(f"{name}.read_s", sim.now - ts)
                    comp.inc(f"{name}.ops", 2)
        marks.append(hits_misses(tb))

    drive(sim, body())
    rows = {
        "stat latency": [comp.timer(f"{name}.stat_s").mean for name in phases],
        "read latency": [comp.timer(f"{name}.read_s").mean for name in phases],
        "hit rate": [hit_rate(marks[k + 1], marks[k]) for k in range(len(phases))],
    }
    timeline = {
        "t0": t0,
        "phase_len": phase_len,
        "fault_at": t0 + phase_len,
        "fault_until": t0 + phase_len + phase_len / 2,
        "end": t0 + 3 * phase_len,
    }
    return rows, tb, monitors, timeline


# --------------------------------------------------------------------------- #
# The experiment
# --------------------------------------------------------------------------- #
@register(
    "chaos",
    "§4.4 robustness",
    "Fault injection and graceful degradation",
    "Crash k of n MCDs and sweep random failure rates: contents stay "
    "byte-identical to the cache-off baseline, hit rate degrades in "
    "proportion to the dead fraction, all-dead latency returns to the "
    "no-IMCa curve, and identical schedules + seeds reproduce identical "
    "metrics.",
)
def run_chaos(scale: str = "default", replicas: int = 1) -> ExperimentResult:
    p = params_for("chaos", scale)
    n = p["num_mcds"]
    if not 1 <= replicas <= n:
        raise ValueError(f"replicas must be in [1, {n}]: {replicas}")
    p["replicas"] = replicas
    dead_counts = list(range(n + 1))
    result = ExperimentResult(
        "chaos", scale, x_name="dead MCDs (of %d)" % n, x_values=dead_counts
    )
    result.extras["replicas"] = replicas

    # ---- pass 1: dead-MCD sweep (+ cache-off baseline) -------------------
    jobs = [(p, 0, 0)] + [(p, n, k) for k in dead_counts]
    rows = pmap(_dead_mcd_job, jobs)
    baseline, sweep = rows[0], rows[1:]
    result.series["stat latency"] = [r["stat_lat"] for r in sweep]
    result.series["read latency"] = [r["read_lat"] for r in sweep]
    result.series["hit rate"] = [r["hit_rate"] for r in sweep]
    result.units["hit rate"] = "ratio"
    result.extras["baseline"] = {
        "stat latency": baseline["stat_lat"],
        "read latency": baseline["read_lat"],
    }

    result.check(
        "degraded-mode correctness: every k (and the baseline) returns "
        "byte-identical contents and stat sizes",
        all(r["fingerprint"] == baseline["fingerprint"] for r in sweep)
        and all(r["mismatches"] == 0 for r in rows),
        f"baseline fp={baseline['fingerprint'][:12]}; "
        f"sweep fps={[r['fingerprint'][:12] for r in sweep]}",
    )
    result.check(
        "no op errors surface to the application at any k",
        all(r["errors"] == 0 for r in rows),
        f"errors per config: {[r['errors'] for r in rows]}",
    )
    hit = result.series["hit rate"]
    # A key survives while any of its R replicas is alive; with k of n
    # daemons dead that is 1 - C(k,R)/C(n,R) of the keyspace (the
    # unreplicated R=1 case reduces to the familiar (n-k)/n).
    surviving = [1 - math.comb(k, replicas) / math.comb(n, replicas) for k in dead_counts]
    result.check(
        "hit rate degrades in proportion to the surviving-key fraction "
        f"(1 - C(k,R)/C(n,R), R={replicas})",
        all(abs(h - hit[0] * s) <= 0.18 for h, s in zip(hit, surviving)),
        "measured vs survival-scaled: "
        + ", ".join(
            f"k={k}: {h:.2f}/{hit[0] * s:.2f}"
            for k, h, s in zip(dead_counts, hit, surviving)
        ),
    )
    all_dead = sweep[-1]
    slack = p["all_dead_slack"]
    result.check(
        "with all MCDs dead, latency returns to the no-IMCa curve "
        f"(within {slack:.0%})",
        all_dead["read_lat"] <= baseline["read_lat"] * (1 + slack)
        and all_dead["stat_lat"] <= baseline["stat_lat"] * (1 + slack),
        f"read: all-dead={all_dead['read_lat']:.3g}s baseline={baseline['read_lat']:.3g}s; "
        f"stat: all-dead={all_dead['stat_lat']:.3g}s baseline={baseline['stat_lat']:.3g}s",
    )

    # ---- pass 2: failure-rate sweep + determinism double-run -------------
    rates = p["rates"]
    rate_rows = pmap(_rate_job, [(p, r, 0) for r in rates] + [(p, rates[-1], 1)])
    repeat = rate_rows.pop()
    result.extras["failure_rate_sweep"] = {
        "rates": rates,
        "hit_rate": [r["hit_rate"] for r in rate_rows],
        "read_latency": [r["read_lat"] for r in rate_rows],
        "faults_injected": [r["fault_log"] for r in rate_rows],
    }
    result.check(
        "correctness holds at every failure rate",
        all(r["mismatches"] == 0 and r["errors"] == 0 for r in rate_rows),
        f"mismatches={[r['mismatches'] for r in rate_rows]} "
        f"errors={[r['errors'] for r in rate_rows]}",
    )
    result.check(
        "rising failure rate degrades the hit rate",
        rate_rows[-1]["hit_rate"] < rate_rows[0]["hit_rate"],
        f"rate={rates[0]}/s: {rate_rows[0]['hit_rate']:.2f} -> "
        f"rate={rates[-1]}/s: {rate_rows[-1]['hit_rate']:.2f} "
        f"({rate_rows[-1]['fault_log']} fault transitions)",
    )
    result.check(
        "identical schedule + seed reproduce identical metrics",
        repeat["metrics_hash"] == rate_rows[-1]["metrics_hash"]
        and repeat["schedule_hash"] == rate_rows[-1]["schedule_hash"]
        and repeat["fingerprint"] == rate_rows[-1]["fingerprint"],
        f"metrics hash {rate_rows[-1]['metrics_hash'][:12]} == "
        f"{repeat['metrics_hash'][:12]}",
    )

    # ---- pass 3: instrumented phase pass ---------------------------------
    obs = make_observability("chaos", trace=True, oplog=True)
    phase_rows, tb, monitors, timeline = _phase_pass(p, obs)
    result.extras["phases"] = {"x": ["healthy", "degraded", "recovered"], **phase_rows}
    tb.snapshot_metrics()
    result.extras["tier_breakdown"] = render_tier_breakdown(obs.tracer)
    result.check(
        "the degraded phase loses hit rate; the recovered phase regains it",
        phase_rows["hit rate"][1] < phase_rows["hit rate"][0]
        and phase_rows["hit rate"][2] > phase_rows["hit rate"][1],
        "hit rate per phase: "
        + ", ".join(f"{v:.2f}" for v in phase_rows["hit rate"]),
    )

    # ---- SLO burn-rate monitoring over the same timeline -----------------
    result.extras["slo"] = [m.summary() for m in monitors]
    result.extras["slo_report"] = render_slo_report(monitors)
    result.extras["slo_timeline"] = timeline
    result.extras["tail"] = tail_summary(obs.oplog)
    result.extras["why_slow"] = render_why_slow(result.extras["tail"])
    # Which objective burns depends on scale: killing one of few MCDs
    # slows a large fraction of reads (smoke/default fire read-latency);
    # killing one of many mostly leaves reads hittable and the burn
    # shows up on the cheaper stat path instead (paper fires
    # stat-latency).  The claim under test is that the fault window
    # visibly burns *some* armed objective — and only the fault window.
    fires = [e for m in monitors for e in m.events if e["state"] == "fire"]
    # Detection may lag the crash by up to the fast window; the alert
    # must still land inside the degraded phase.
    fault_lo = timeline["fault_at"]
    fault_hi = timeline["fault_at"] + 2 * timeline["phase_len"]
    result.check(
        "an armed SLO burns during the fault window "
        "(fast+slow burn rates cross the alert threshold)",
        bool(fires) and all(fault_lo <= e["t"] <= fault_hi for e in fires),
        f"{len(fires)} alert(s); fire times "
        f"{[(e['slo'], round(e['t'] * 1e3, 3)) for e in fires]}ms, fault at "
        f"{round(fault_lo * 1e3, 3)}ms..{round(timeline['fault_until'] * 1e3, 3)}ms",
    )
    result.check(
        "every alert clears after recovery: burn rates return below the "
        "threshold before the run ends",
        bool(fires) and not any(m.firing for m in monitors),
        "events: "
        + str([
            (e["slo"], e["state"], round(e["t"] * 1e3, 3))
            for m in monitors for e in m.events
        ]),
    )
    result.notes.append(
        "MCD crashes are cold restarts: a rejoining daemon is purged before "
        "first use, so no pre-crash data can ever be served."
    )
    if replicas > 1:
        result.notes.append(
            f"replication on: every key lives on {replicas} MCDs, so killing "
            "daemons changes only the hit rate (per the survival function), "
            "never the returned bytes."
        )
    return result
