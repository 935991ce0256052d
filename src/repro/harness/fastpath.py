"""The fast-path equality experiment (DESIGN §15).

``IMCaConfig.fastpath`` reroutes same-instant op bursts through three
coalescing layers — the RPC request-burst window, stat/get
singleflight, and batch admission at the server io-pool and MCD CPUs.
All three change *when* things happen (burst members share delivery
and completion instants) but must never change *what* the application
observes.  This experiment is the proof: four scenarios each run twice
— once scalar, once with ``fastpath`` on — over the identical
fixed-work burst workload, and every result the application can see
must match:

* **steady** — warm, fault-free.  Content digests, op counts *and* the
  translator-level cache counters (``stat_hits``/``read_hits``/...)
  must be equal; they are folded into one *logical metrics
  fingerprint* per run.  Transport-level counters (MCD round trips,
  scheduler events) intentionally shrink — that is the win, reported
  as the attribution table, not asserted equal.
* **chaos** — a seeded Poisson crash/restart schedule over the MCD
  array.  Timing compression shifts which individual ops land inside a
  fault window, so counters are out of scope; returned bytes and stat
  sizes are not: digests must match and no op error may surface.
* **elastic** — an ``mcd-add`` (with warm window + migration) and a
  graceful drain land at fixed round boundaries mid-run.
* **tenants** — the per-tenant arbiter partitions the same workload's
  keyspace; arbitration state is engine-side and must not perturb
  results either.

The workload is fixed-work (rounds x burst, never time-bounded —
fastpath compresses simulated time, so a wall-clock-bounded run would
do *different work* and prove nothing).  Each round, every client
releases a burst of concurrent children: a stat of a shared file
(duplicates inside the burst exercise stat singleflight), a private
cached read (the shared ``:stat`` key rides every multi-get, so
followers park on the leader's fetch), and a scratch-file write (not
intercepted by CMCache — it dives straight to the server, so the burst
exercises RPC request coalescing into the brick and the io-pool batch
gate).  Children record results into per-burst slots hashed in slot
order, making the digest independent of completion order.

Membership/fault events are armed at *round boundaries* (not wall
times): both runs see the event at the same point in the op stream
even though their clocks have diverged.
"""

from __future__ import annotations

import hashlib
import json

from repro.cluster import ResilienceConfig, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.faults.schedule import MCD_CRASH, FaultSchedule, random_schedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.parallel import pmap
from repro.harness.params import params_for
from repro.memcached.tenancy import TenantSpec
from repro.workloads.base import drive, run_clients

#: Scenario order (also the figure's x axis).
SCENARIOS = ("steady", "chaos", "elastic", "tenants")

#: Fault events armed at a round boundary fire one tick later, inside
#: the round (same trick as the elasticity harness).
_EVENT_EPS = 1e-7

#: Translator-level counters that must be equal scalar-vs-fastpath on a
#: warm fault-free run: they describe what the *application* hit, not
#: how many wire round trips it took.
_LOGICAL_CM_KEYS = ("stat_hits", "stat_misses", "read_hits", "read_misses")


def _payload(rank: int, j: int, size: int) -> bytes:
    """Deterministic, distinct-per-file contents."""
    phase = (53 * rank + 17 * j + 9) % 251
    return bytes((phase + i) % 256 for i in range(size))


def _scratch_payload(rank: int, b: int, r: int, size: int) -> bytes:
    """Round-varying scratch contents (per-child private file)."""
    phase = (71 * rank + 31 * b + 13 * r + 1) % 251
    return bytes((phase + i) % 256 for i in range(size))


def _build(p: dict, scenario: str, fastpath: bool):
    imca_kw: dict = {"fastpath": fastpath}
    if scenario == "elastic":
        # Elastic membership needs consistent hashing so add/drain remap
        # only a slice of the keyspace.
        imca_kw["selector"] = "ketama"
    if scenario == "tenants":
        # IMCa keys start with the absolute path, so path prefixes carve
        # the workload into a shared-files tenant and a per-client one.
        imca_kw["tenants"] = (
            TenantSpec("shared", "/fp/shared/", reserved_frac=0.10),
            TenantSpec("clients", "/fp/r", reserved_frac=0.20),
        )
        imca_kw["tenant_arbitrate"] = True
    return build_gluster_testbed(
        TestbedConfig(
            num_clients=p["num_clients"],
            num_mcds=p["num_mcds"],
            mcd_memory=p["mcd_memory"],
            imca=IMCaConfig(**imca_kw),
            resilience=ResilienceConfig(
                mcd_timeout=p["mcd_timeout"],
                mcd_retries=0,
                cooldown=p["cooldown"],
                eject_after=2,
                seed=p["seed"],
            ),
        )
    )


def _setup(tb, p: dict):
    """Untimed: create shared + private + scratch files, then warm the
    MCD array with one *sequential* pass (sequential ops never open a
    coalescing window, so both runs warm identically)."""
    rec = p["record_size"]
    per_file = p["file_size"] // rec
    shared = [f"/fp/shared/f{j}" for j in range(p["shared_files"])]
    private: list[tuple[str, int]] = []
    scratch: list[list[int]] = []

    def body():
        c0 = tb.clients[0]
        for j, path in enumerate(shared):
            fd = yield from c0.create(path)
            data = _payload(97, j, p["file_size"])
            yield from c0.write(fd, 0, len(data), data)
        for rank, c in enumerate(tb.clients):
            path = f"/fp/r{rank}/data"
            fd = yield from c.create(path)
            data = _payload(rank, 0, p["file_size"])
            yield from c.write(fd, 0, len(data), data)
            private.append((path, fd))
            row = []
            for b in range(p["burst"]):
                sfd = yield from c.create(f"/fp/r{rank}/s{b}")
                row.append(sfd)
            scratch.append(row)
        # Warm pass: every stat key and data block the measured phase
        # will touch goes through the server once, so SMCache pushes it
        # into the MCD array.
        for rank, c in enumerate(tb.clients):
            for path in shared:
                yield from c.stat(path)
            _path, fd = private[rank]
            for k in range(per_file):
                yield from c.read(fd, k * rec, rec)

    drive(tb.sim, body())
    return shared, private, scratch


def _measure(tb, shared, private, scratch, p: dict, events_by_round) -> dict:
    """The fixed-work measured phase: ``rounds`` barrier-separated
    bursts of ``burst`` concurrent children per client."""
    sim = tb.sim
    burst = p["burst"]
    rec = p["record_size"]
    per_file = p["file_size"] // rec
    digests = ["" for _ in tb.clients]
    counts = {"ops": 0, "errors": 0, "mismatches": 0}
    injectors: list = []

    def body(client, rank, barrier):
        # Even rounds release a stat+read burst (the cached fast path:
        # stat singleflight, multi-get riders, MCD batch admission);
        # odd rounds release a write burst — writes are not intercepted
        # by CMCache, so the whole burst dives to the server in one
        # same-instant window (RPC request coalescing into the brick +
        # io-pool batch admission).  Mixing op kinds inside one burst
        # would let the first op's latency spread desynchronise the
        # rest, never opening the later windows.
        h = hashlib.sha256()
        _ppath, pfd = private[rank]
        expected = _payload(rank, 0, p["file_size"])
        for r in range(p["rounds"]):
            yield barrier.wait()
            if rank == 0 and r in events_by_round:
                injectors.append(
                    tb.arm_faults(events_by_round[r].shifted(sim.now))
                )
            slots: list = [None] * burst

            def child(b: int, r: int = r):
                if r % 2:
                    # The assigned version is a *global* arrival-order
                    # counter — timing-dependent by construction — so it
                    # must not enter the digest; content equality for
                    # writes is proven by the readback pass below.
                    wdata = _scratch_payload(rank, b, r, rec)
                    yield from client.write(scratch[rank][b], 0, rec, wdata)
                    counts["ops"] += 1
                    slots[b] = (0, b"")
                    return
                spath = shared[b % len(shared)]
                st = yield from client.stat(spath)
                off = ((r * burst + b) % per_file) * rec
                res = yield from client.read(pfd, off, rec)
                if res.data != expected[off : off + rec]:
                    counts["mismatches"] += 1
                counts["ops"] += 2
                slots[b] = (st.size, res.data or b"")

            procs = [
                sim.process(child(b), name=f"fp-r{rank}b{b}") for b in range(burst)
            ]
            try:
                yield sim.all_of(procs)
            except Exception:
                counts["errors"] += 1
            # Hash in slot order: the digest must not depend on which
            # child completed first.
            for b in range(burst):
                slot = slots[b]
                if slot is None:
                    h.update(b"\x00failed")
                    continue
                size, data = slot
                h.update(int(size).to_bytes(8, "big"))
                h.update(data)
        digests[rank] = h.hexdigest()

    run_clients(sim, tb.clients, body)
    fault_log = sum(len(inj.log) for inj in injectors)

    # Untimed readback: every scratch file must hold its last written
    # round's contents — the write bursts' content equality proof.
    last_write = max(
        (r for r in range(p["rounds"]) if r % 2), default=None
    )
    if last_write is not None:

        def readback():
            for rank, c in enumerate(tb.clients):
                h = hashlib.sha256(digests[rank].encode("ascii"))
                for b in range(burst):
                    res = yield from c.read(scratch[rank][b], 0, rec)
                    h.update(res.data or b"")
                    if res.data != _scratch_payload(rank, b, last_write, rec):
                        counts["mismatches"] += 1
                digests[rank] = h.hexdigest()

        drive(sim, readback())

    combined = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    return {"fingerprint": combined, "fault_log": fault_log, **counts}


def _events(p: dict, scenario: str) -> dict[int, FaultSchedule]:
    """Round-boundary fault/membership events for one scenario."""
    if scenario == "chaos":
        return {
            1: random_schedule(
                p["seed"],
                p["chaos_window"],
                rate=p["chaos_rate"],
                num_targets=p["num_mcds"],
                kinds=(MCD_CRASH,),
                mean_downtime=p["mean_downtime"],
            ).shifted(_EVENT_EPS)
        }
    if scenario == "elastic":
        return {
            1: FaultSchedule().mcd_add(
                _EVENT_EPS, warm_for=p["warm_for"], migrate=True
            ),
            max(2, p["rounds"] // 2): FaultSchedule().mcd_drain(
                _EVENT_EPS, mcd=0, drain_for=p["drain_for"], migrate=True
            ),
        }
    return {}


def _logical_fingerprint(row: dict) -> str:
    """One hash over everything that must be equal scalar-vs-fastpath
    on the steady scenario: content digest, op/error/mismatch counts,
    and the translator-level cache counters."""
    doc = {
        "content": row["fingerprint"],
        "ops": row["ops"],
        "errors": row["errors"],
        "mismatches": row["mismatches"],
        **{f"cm.{k}": row["cm"].get(k, 0) for k in _LOGICAL_CM_KEYS},
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _job(p: dict, scenario: str, fastpath: bool) -> dict:
    """One (scenario, arm) end to end — picklable for pmap."""
    tb = _build(p, scenario, fastpath)
    shared, private, scratch = _setup(tb, p)
    out = _measure(tb, shared, private, scratch, p, _events(p, scenario))
    cm = tb.cm_stats()
    out["cm"] = {k: cm.get(k, 0) for k in _LOGICAL_CM_KEYS}
    out["fastpath"] = tb.fastpath_stats()
    out["mcclient"] = {
        k: v for k, v in tb.mcclient_stats().items() if k in ("hits", "misses", "errors")
    }
    if scenario == "tenants":
        out["tenants"] = {
            name: {k: stats.get(k, 0) for k in ("hits", "misses")}
            for name, stats in tb.tenant_stats().items()
            if not name.startswith("~")
        }
    return out


@register(
    "fastpath",
    "DESIGN §15",
    "Fast-path equality: batched == scalar",
    "Run the identical fixed-work burst workload scalar and with "
    "IMCaConfig.fastpath on, across steady/chaos/elastic/tenants "
    "scenarios: content digests (and, fault-free, the logical metrics "
    "fingerprint) must be equal, while the fastpath_* attribution "
    "counters show each coalescing tier actually engaged.",
)
def run_fastpath(scale: str = "default") -> ExperimentResult:
    p = params_for("fastpath", scale)
    jobs = [(p, s, fp) for s in SCENARIOS for fp in (False, True)]
    rows = pmap(_job, jobs)
    by = {(s, fp): row for (_, s, fp), row in zip(jobs, rows)}

    result = ExperimentResult(
        "fastpath", scale, x_name="scenario", x_values=list(SCENARIOS)
    )
    result.series["ops"] = [by[(s, True)]["ops"] for s in SCENARIOS]
    result.series["rpc coalesced"] = [
        by[(s, True)]["fastpath"].get("rpc_coalesced", 0) for s in SCENARIOS
    ]
    result.series["singleflight follows"] = [
        by[(s, True)]["fastpath"].get("sf_follows", 0)
        + by[(s, True)]["fastpath"].get("stat_sf_follows", 0)
        for s in SCENARIOS
    ]
    result.series["admit coalesced"] = [
        by[(s, True)]["fastpath"].get("server_admit_coalesced", 0)
        + by[(s, True)]["fastpath"].get("mcd_admit_coalesced", 0)
        for s in SCENARIOS
    ]

    for s in SCENARIOS:
        scalar, fast = by[(s, False)], by[(s, True)]
        result.check(
            f"{s}: batched run returns byte-identical contents and stat "
            "sizes to the scalar run",
            fast["fingerprint"] == scalar["fingerprint"]
            and fast["mismatches"] == 0
            and scalar["mismatches"] == 0,
            f"scalar fp={scalar['fingerprint'][:12]} "
            f"fastpath fp={fast['fingerprint'][:12]}",
        )
        result.check(
            f"{s}: no op error surfaces to the application on either arm",
            scalar["errors"] == 0 and fast["errors"] == 0,
            f"errors scalar={scalar['errors']} fastpath={fast['errors']}",
        )

    steady_s, steady_f = by[("steady", False)], by[("steady", True)]
    lf_s, lf_f = _logical_fingerprint(steady_s), _logical_fingerprint(steady_f)
    result.check(
        "steady: logical metrics fingerprints are equal (content digest "
        "+ op counts + translator cache counters)",
        lf_s == lf_f,
        f"scalar={lf_s[:12]} fastpath={lf_f[:12]}; "
        f"cm scalar={steady_s['cm']} fastpath={steady_f['cm']}",
    )
    result.extras["logical_fingerprints"] = {
        "scalar": lf_s,
        "fastpath": lf_f,
    }

    fp = steady_f["fastpath"]
    result.check(
        "steady: every coalescing tier engaged (RPC window, stat + get "
        "singleflight, MCD and server batch admission)",
        fp.get("rpc_coalesced", 0) > 0
        and fp.get("stat_sf_follows", 0) > 0
        and fp.get("sf_follows", 0) > 0
        and fp.get("mcd_admit_coalesced", 0) > 0
        and fp.get("server_admit_coalesced", 0) > 0,
        f"attribution: {fp}",
    )
    result.check(
        "scalar runs never touch the fast path (all fastpath_* counters "
        "zero with the knob off)",
        all(
            v == 0
            for s in SCENARIOS
            for v in by[(s, False)]["fastpath"].values()
        ),
        str({s: by[(s, False)]["fastpath"] for s in SCENARIOS}),
    )
    result.check(
        "chaos: the fault schedule demonstrably ran on both arms",
        by[("chaos", False)]["fault_log"] > 0 and by[("chaos", True)]["fault_log"] > 0,
        f"fault transitions scalar={by[('chaos', False)]['fault_log']} "
        f"fastpath={by[('chaos', True)]['fault_log']}",
    )

    result.extras["attribution"] = {s: by[(s, True)]["fastpath"] for s in SCENARIOS}
    result.extras["mcclient"] = {
        s: {"scalar": by[(s, False)]["mcclient"], "fastpath": by[(s, True)]["mcclient"]}
        for s in SCENARIOS
    }
    if "tenants" in by[("tenants", True)]:
        result.extras["tenant_hits"] = {
            "scalar": by[("tenants", False)].get("tenants", {}),
            "fastpath": by[("tenants", True)].get("tenants", {}),
        }
    result.notes.append(
        "Equality is asserted at the application boundary: bytes, stat "
        "sizes, op counts, and (fault-free) translator cache counters. "
        "Transport-level counts (MCD round trips, scheduler events) "
        "shrink under fastpath by design — see the attribution table."
    )
    return result
