"""The multi-tenant cache-tier experiment (ROADMAP item 2, Memshare).

Two scenarios, each replayed as one deterministic blended op stream
(:mod:`repro.workloads.tenants`) against an IMCa testbed whose engines
run the per-tenant arbiter (:mod:`repro.memcached.tenancy`):

* **mix** — three populations share the tier: a small, highly skewed
  ``hot`` tenant; a mid-size ``warm`` tenant; and a ``scan`` tenant
  whose near-uniform footprint dwarfs the cache.  Under vanilla slab
  LRU (``tenant_arbitrate=False`` — same engine, accounting only) the
  scan churn drags the hot working set out from the LRU tail.  With
  arbitration on, the scan tenant is over target and eats its own
  evictions, and ghost hits steer shared-pool bytes to the tenants
  that convert them into hits.  Checked: aggregate and hot-tenant hit
  rate with arbitration >= vanilla, and the machinery demonstrably ran
  (shared-pool bytes reassigned, scan evictions charged to scan).
* **sla** — a tenant with a reserved floor (``reserved_frac``) shares
  one daemon with an aggressive neighbour (4x the traffic, footprint
  4x the cache, write churn).  Vanilla LRU squeezes the SLA tenant
  below its declared reservation; with arbitration the floor holds
  (``floor_breaches == 0`` and resident bytes >= the floor at the end)
  and the SLA tenant's hit rate is no worse.

One mix variant runs twice to prove seed => identical metrics, and the
whole experiment is a pmap over picklable jobs, so ``--jobs 1`` and
``--jobs 4`` are byte-identical.
"""

from __future__ import annotations

from repro.core.config import IMCaConfig
from repro.harness.experiment import ExperimentResult, register
from repro.harness.parallel import pmap
from repro.harness.params import params_for
from repro.harness.scenario import hit_rate, testbed
from repro.obs.export import metrics_fingerprint
from repro.workloads.tenants import TenantLoad, TenantMixConfig, replay_tenant_mix

#: (scenario, variant) rows in job order; the extra arbitrated repeat
#: is appended for the determinism check.
CASES = (
    ("mix", "vanilla"),
    ("mix", "arbitrated"),
    ("sla", "vanilla"),
    ("sla", "floor"),
)


def _loads(p: dict, scenario: str) -> tuple[TenantLoad, ...]:
    return tuple(TenantLoad(**d) for d in p[scenario]["tenants"])


def _job(p: dict, scenario: str, variant: str, _repeat: int, obs=None) -> dict:
    """One (scenario, variant) end to end.  ``variant == 'vanilla'``
    disables arbitration but keeps per-tenant accounting, so both arms
    run the identical op stream on the identical engine layout and
    differ only in victim selection + shared-pool steering."""
    s = p[scenario]
    loads = _loads(p, scenario)
    mix = TenantMixConfig(loads, operations=s["operations"], seed=s["seed"])
    # The scenario block sizes the bank; the client count is shared.
    tb = testbed(
        {**p, **s},
        imca=IMCaConfig(
            tenants=mix.specs(),
            tenant_arbitrate=variant != "vanilla",
            tenant_quantum=p["quantum"],
            tenant_rebalance_ops=p["rebalance_ops"],
            tenant_ghost_entries=p["ghost_entries"],
        ),
        obs=obs,
    )
    warm_snap: dict = {}
    res = replay_tenant_mix(
        tb.sim, tb.clients, mix,
        on_timed_start=lambda: warm_snap.update(tb.tenant_stats()),
    )
    end = tb.tenant_stats()
    for mcd in tb.all_mcds():
        mcd.engine.check_invariants()

    delta: dict[str, dict[str, float]] = {}
    for t in loads:
        dh = end[t.name]["hits"] - warm_snap[t.name]["hits"]
        dm = end[t.name]["misses"] - warm_snap[t.name]["misses"]
        delta[t.name] = {"hits": dh, "misses": dm, "hit_rate": hit_rate((dh, dm))}
    th = sum(d["hits"] for d in delta.values())
    tm = sum(d["misses"] for d in delta.values())
    return {
        "delta": delta,
        "aggregate": hit_rate((th, tm)),
        "tenants": {t.name: dict(end[t.name]) for t in loads},
        "arbiter": dict(end["~arbiter"]),
        "read_lat": {
            t.name: res.per_tenant[t.name].read_latency.mean for t in loads
        },
        "wall_time": res.wall_time,
        "metrics_hash": metrics_fingerprint(tb.snapshot_metrics()),
    }


@register(
    "tenants",
    "ROADMAP item 2",
    "Multi-tenant MCD tier: floors + greedy shared-pool arbitration",
    "Many user populations share one cache tier: per-tenant namespaces, "
    "footprints, and Zipf skews blended into one op stream.  Vanilla "
    "slab LRU lets a near-uniform scan flood churn out the hot working "
    "set; Memshare-style arbitration (reserved floors + shared pool, "
    "ghost-hit-driven greedy reassignment, over-target eviction "
    "preference) recovers aggregate and hot-tenant hit rate, and an SLA "
    "scenario proves reserved floors hold against an aggressive "
    "neighbour.",
)
def run_tenants(scale: str = "default") -> ExperimentResult:
    p = params_for("tenants", scale)
    jobs = [(p, sc, v, 0) for sc, v in CASES] + [(p, "mix", "arbitrated", 1)]
    rows = pmap(_job, jobs)
    repeat = rows.pop()
    by = {case: row for case, row in zip(CASES, rows)}
    mix_names = [d["name"] for d in p["mix"]["tenants"]]

    result = ExperimentResult(
        "tenants", scale, x_name="tenant", x_values=mix_names,
    )
    for case in (("mix", "vanilla"), ("mix", "arbitrated")):
        result.series[case[1]] = [by[case]["delta"][n]["hit_rate"] for n in mix_names]
        result.units[case[1]] = "ratio"
    result.extras["aggregate_hit_rate"] = {
        "vanilla": by[("mix", "vanilla")]["aggregate"],
        "arbitrated": by[("mix", "arbitrated")]["aggregate"],
    }
    result.extras["mix_tenants"] = {
        v: by[("mix", v)]["tenants"] for v in ("vanilla", "arbitrated")
    }
    result.extras["mix_arbiter"] = by[("mix", "arbitrated")]["arbiter"]
    result.extras["sla_tenants"] = {
        v: by[("sla", v)]["tenants"] for v in ("vanilla", "floor")
    }
    result.extras["read_latency"] = {
        f"{sc}:{v}": by[(sc, v)]["read_lat"] for sc, v in CASES
    }

    van, arb = by[("mix", "vanilla")], by[("mix", "arbitrated")]
    hot = mix_names[0]
    scan = mix_names[-1]
    result.check(
        "aggregate hit rate with arbitration >= vanilla slab LRU on the "
        "skewed tenant mix",
        arb["aggregate"] >= van["aggregate"],
        f"arbitrated={arb['aggregate']:.3f} vs vanilla={van['aggregate']:.3f}",
    )
    result.check(
        f"the skewed '{hot}' tenant gains hit rate under arbitration "
        "(its working set stops being scan-flood collateral)",
        arb["delta"][hot]["hit_rate"] > van["delta"][hot]["hit_rate"],
        f"arbitrated={arb['delta'][hot]['hit_rate']:.3f} vs "
        f"vanilla={van['delta'][hot]['hit_rate']:.3f}",
    )
    result.check(
        "arbitration machinery ran: shared-pool bytes reassigned by ghost "
        f"hits, and the '{scan}' flood's evictions are charged to itself",
        arb["arbiter"].get("bytes_reassigned", 0) > 0
        and arb["tenants"][scan]["evictions"] > 0
        and arb["tenants"][scan]["evictions"]
        > arb["tenants"][hot]["evictions"],
        f"reassigned={arb['arbiter'].get('bytes_reassigned', 0)}B over "
        f"{arb['arbiter'].get('rebalances', 0)} moves; evictions "
        f"{scan}={arb['tenants'][scan]['evictions']} vs "
        f"{hot}={arb['tenants'][hot]['evictions']}",
    )
    result.check(
        "the vanilla arm is tracking-only: per-tenant counters populated, "
        "zero rebalances, zero floor enforcement",
        sum(t["hits"] + t["misses"] for t in van["tenants"].values()) > 0
        and van["arbiter"].get("rebalances", 0) == 0
        and van["arbiter"].get("floor_breaches", 0) == 0,
        f"vanilla arbiter={van['arbiter']}",
    )

    sla_van, sla_floor = by[("sla", "vanilla")], by[("sla", "floor")]
    sla = p["sla"]["tenants"][0]["name"]
    floor_bytes = sla_floor["tenants"][sla]["reserved_bytes"]
    result.check(
        f"reserved floor holds under the aggressive neighbour: '{sla}' "
        "ends at or above its reservation with zero floor breaches",
        sla_floor["tenants"][sla]["bytes"] >= floor_bytes
        and sla_floor["arbiter"].get("floor_breaches", 0) == 0,
        f"resident={sla_floor['tenants'][sla]['bytes']}B vs "
        f"floor={floor_bytes}B, breaches="
        f"{sla_floor['arbiter'].get('floor_breaches', 0)}",
    )
    result.check(
        "the guarantee is not vacuous: vanilla LRU squeezes the SLA "
        "tenant below its declared reservation",
        sla_van["tenants"][sla]["bytes"] < floor_bytes,
        f"vanilla resident={sla_van['tenants'][sla]['bytes']}B vs "
        f"declared floor={floor_bytes}B",
    )
    result.check(
        "the floor buys hit rate: SLA tenant's timed hit rate with the "
        "floor >= vanilla",
        sla_floor["delta"][sla]["hit_rate"] >= sla_van["delta"][sla]["hit_rate"],
        f"floor={sla_floor['delta'][sla]['hit_rate']:.3f} vs "
        f"vanilla={sla_van['delta'][sla]['hit_rate']:.3f}",
    )
    result.check(
        "identical mix + seed reproduce identical metrics (pmap job "
        "determinism, the --jobs byte-equality substrate)",
        repeat["metrics_hash"] == arb["metrics_hash"],
        f"{arb['metrics_hash'][:12]} == {repeat['metrics_hash'][:12]}",
    )
    result.notes.append(
        "Both mix arms run the identical op stream on the identical "
        "engine; 'vanilla' only disables victim preference and "
        "shared-pool steering, so the hit-rate gap is pure arbitration."
    )
    result.notes.append(
        "Floors are eviction-time guarantees: cross-tenant eviction "
        "never takes a tenant below reserved_frac x mem_limit; a tenant "
        "may still sit below its floor when its own demand is smaller."
    )
    return result
