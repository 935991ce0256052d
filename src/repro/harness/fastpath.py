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

from repro.core.config import IMCaConfig
from repro.faults.schedule import MCD_CRASH, FaultSchedule, random_schedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.parallel import pmap
from repro.harness.params import params_for
from repro.harness.scenario import Probe, create_files, payload, testbed, text_digest
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


def _contents(p: dict, rank: int, j: int) -> bytes:
    return payload(p["file_size"], (53 * rank + 17 * j + 9) % 251)


def _scratch(p: dict, rank: int, b: int, r: int) -> bytes:
    """Round-varying scratch contents (per-child private file)."""
    return payload(p["record_size"], (71 * rank + 31 * b + 13 * r + 1) % 251)


def _build(p: dict, scenario: str, fastpath: bool, obs=None):
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
    return testbed(p, imca=IMCaConfig(**imca_kw), resilient=True, obs=obs)


def _setup(tb, p: dict):
    """Untimed: create shared + private + scratch files, then warm the
    MCD array with one *sequential* pass (sequential ops never open a
    coalescing window, so both runs warm identically).  Returns the
    shared paths and, per rank, ``[(private path, fd), (scratch path,
    fd) x burst]``."""
    rec = p["record_size"]
    per_file = p["file_size"] // rec
    shared = [f"/fp/shared/f{j}" for j in range(p["shared_files"])]
    files = [(0, path, _contents(p, 97, j)) for j, path in enumerate(shared)]
    for rank in range(len(tb.clients)):
        files.append((rank, f"/fp/r{rank}/data", _contents(p, rank, 0)))
        files += [(rank, f"/fp/r{rank}/s{b}", None) for b in range(p["burst"])]

    def body():
        fds = yield from create_files(tb, files)
        # Client 0 also holds the shared files' fds; nothing reads
        # through them (they are only ever stat-ed).
        fds[0] = fds[0][len(shared) :]
        # Warm pass: every stat key and data block the measured phase
        # will touch goes through the server once, so SMCache pushes it
        # into the MCD array.
        for rank, c in enumerate(tb.clients):
            for path in shared:
                yield from c.stat(path)
            _path, fd = fds[rank][0]
            for k in range(per_file):
                yield from c.read(fd, k * rec, rec)
        return fds

    return shared, drive(tb.sim, body())


def _measure(tb, shared, fds, p: dict, events_by_round) -> dict:
    """The fixed-work measured phase: ``rounds`` barrier-separated
    bursts of ``burst`` concurrent children per client."""
    sim = tb.sim
    burst = p["burst"]
    rec = p["record_size"]
    per_file = p["file_size"] // rec
    digests = ["" for _ in tb.clients]
    probe = Probe(tb)
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
        (_ppath, pfd), *scratch = fds[rank]
        expected = _contents(p, rank, 0)
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
                    done = yield from probe.write(
                        rank, scratch[b][1], 0, _scratch(p, rank, b, r)
                    )
                    if done is not None:
                        slots[b] = (0, b"")
                    return
                st = yield from probe.stat(
                    rank, shared[b % len(shared)], p["file_size"]
                )
                off = ((r * burst + b) % per_file) * rec
                res = yield from probe.read(rank, pfd, off, expected[off : off + rec])
                if st is not None and res is not None:
                    slots[b] = (st.size, res.data or b"")

            yield sim.all_of(
                [sim.process(child(b), name=f"fp-r{rank}b{b}") for b in range(burst)]
            )
            # Hash in slot order: the digest must not depend on which
            # child completed first (the probe's own per-rank digest
            # does, so it is not used here).
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
    measured_ops = probe.ops  # the readback below is not part of "ops"

    # Untimed readback: every scratch file must hold its last written
    # round's contents — the write bursts' content equality proof.
    last_write = max(
        (r for r in range(p["rounds"]) if r % 2), default=None
    )
    if last_write is not None:

        def readback():
            for rank in range(len(tb.clients)):
                h = hashlib.sha256(digests[rank].encode("ascii"))
                for b, (_spath, sfd) in enumerate(fds[rank][1:]):
                    res = yield from probe.read(
                        rank, sfd, 0, _scratch(p, rank, b, last_write), timed=False
                    )
                    if res is not None:
                        h.update(res.data or b"")
                digests[rank] = h.hexdigest()

        drive(sim, readback())

    return {
        "fingerprint": text_digest(*digests),
        "fault_log": fault_log,
        **probe.counts(),
        "ops": measured_ops,
    }


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
    return text_digest(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _job(p: dict, scenario: str, fastpath: bool, obs=None) -> dict:
    """One (scenario, arm) end to end — picklable for pmap."""
    tb = _build(p, scenario, fastpath, obs)
    shared, fds = _setup(tb, p)
    out = _measure(tb, shared, fds, p, _events(p, scenario))
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
