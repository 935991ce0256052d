"""The singleflight equality experiment (DESIGN §15).

Every get and stat a client issues goes through a singleflight table:
an op that finds its key already being fetched on the same client parks
on that fetch instead of issuing its own.  That changes *how many* wire
round trips a burst costs and *when* its members complete, but must
never change *what* the application observes.  This experiment is the
proof: four scenarios each run twice over the identical fixed-work
workload — once **serial** (every client issues its children one after
another, so nothing is ever in flight when the next op starts and
nothing can follow) and once as a concurrent **burst** — and every
result the application can see must match:

* **steady** — warm, fault-free.  Content digests, op counts *and* the
  translator-level cache counters (``stat_hits``/``read_hits``/...)
  must be equal; they are folded into one *logical metrics
  fingerprint* per run.  Transport-level counters (MCD round trips,
  scheduler events) intentionally shrink on the burst arm — that is the
  win, reported as the attribution table, not asserted equal.
* **chaos** — a seeded Poisson crash/restart schedule over the MCD
  array.  The arms' clocks differ, which shifts which individual ops
  land inside a fault window, so counters are out of scope; returned
  bytes and stat sizes are not: digests must match and no op error may
  surface.
* **elastic** — an ``mcd-add`` (with warm window + migration) and a
  graceful drain land at fixed round boundaries mid-run.
* **tenants** — the per-tenant arbiter partitions the same workload's
  keyspace; arbitration state is engine-side and must not perturb
  results either.

There is no switch to flip: the serial arm's follow counters are all
zero and the burst arm's are not, on the same code and config, because
the table observes concurrency.

The workload is fixed-work (rounds x burst, never time-bounded — the
arms take different simulated time, so a time-bounded run would do
*different work* and prove nothing).  Each round, every client runs
``burst`` children: a stat of a shared file (duplicates inside the
burst exercise stat singleflight), a private cached read (the shared
``:stat`` key rides every multi-get, so followers park on the leader's
fetch), and on odd rounds a scratch-file write (not intercepted by
CMCache — it dives straight to the server).  Children record results
into per-burst slots hashed in slot order, making the digest
independent of completion order.

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

#: Translator-level counters that must be equal serial-vs-burst on a
#: warm fault-free run: they describe what the *application* hit, not
#: how many wire round trips it took.
_LOGICAL_CM_KEYS = ("stat_hits", "stat_misses", "read_hits", "read_misses")


def _contents(p: dict, rank: int, j: int) -> bytes:
    return payload(p["file_size"], (53 * rank + 17 * j + 9) % 251)


def _scratch(p: dict, rank: int, b: int, r: int) -> bytes:
    """Round-varying scratch contents (per-child private file)."""
    return payload(p["record_size"], (71 * rank + 31 * b + 13 * r + 1) % 251)


def _build(p: dict, scenario: str, obs=None):
    imca_kw: dict = {}
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
    MCD array with one *sequential* pass (sequential ops never share a
    flight, so both arms warm identically).  Returns the
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


def _measure(tb, shared, fds, p: dict, events_by_round, serial: bool) -> dict:
    """The fixed-work measured phase: ``rounds`` barrier-separated
    rounds of ``burst`` children per client — concurrent processes, or
    (*serial*) the same children one after another."""
    sim = tb.sim
    burst = p["burst"]
    rec = p["record_size"]
    per_file = p["file_size"] // rec
    digests = ["" for _ in tb.clients]
    probe = Probe(tb)
    injectors: list = []

    def body(client, rank, barrier):
        # Even rounds release a stat+read burst (the cached path: stat
        # singleflight, multi-get riders); odd rounds release a write
        # burst — writes are not intercepted by CMCache, so the whole
        # burst dives to the server.
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

            if serial:
                for b in range(burst):
                    yield from child(b)
            else:
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
    """One hash over everything that must be equal serial-vs-burst
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


def _job(p: dict, scenario: str, serial: bool, obs=None) -> dict:
    """One (scenario, arm) end to end — picklable for pmap."""
    tb = _build(p, scenario, obs)
    shared, fds = _setup(tb, p)
    out = _measure(tb, shared, fds, p, _events(p, scenario), serial)
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
    "Singleflight equality: concurrent burst == the same ops one at a time",
    "Run the identical fixed-work workload with every client's children "
    "issued one after another and as a concurrent burst, across "
    "steady/chaos/elastic/tenants scenarios: content digests (and, "
    "fault-free, the logical metrics fingerprint) must be equal, while "
    "the follow counters show both singleflight tables engaged on the "
    "burst arm and stayed at zero on the serial one.",
)
def run_fastpath(scale: str = "default") -> ExperimentResult:
    p = params_for("fastpath", scale)
    jobs = [(p, s, serial) for s in SCENARIOS for serial in (True, False)]
    rows = pmap(_job, jobs)
    by = {(s, serial): row for (_, s, serial), row in zip(jobs, rows)}
    serial_rows = {s: by[(s, True)] for s in SCENARIOS}
    burst_rows = {s: by[(s, False)] for s in SCENARIOS}

    result = ExperimentResult(
        "fastpath", scale, x_name="scenario", x_values=list(SCENARIOS)
    )
    result.series["ops"] = [burst_rows[s]["ops"] for s in SCENARIOS]
    result.series["stat follows"] = [
        burst_rows[s]["fastpath"]["stat_sf_follows"] for s in SCENARIOS
    ]
    result.series["get follows"] = [
        burst_rows[s]["fastpath"]["sf_follows"] for s in SCENARIOS
    ]

    for s in SCENARIOS:
        serial, burst = serial_rows[s], burst_rows[s]
        result.check(
            f"{s}: the burst returns byte-identical contents and stat "
            "sizes to the same ops issued one at a time",
            burst["fingerprint"] == serial["fingerprint"]
            and burst["mismatches"] == 0
            and serial["mismatches"] == 0,
            f"serial fp={serial['fingerprint'][:12]} "
            f"burst fp={burst['fingerprint'][:12]}",
        )
        result.check(
            f"{s}: no op error surfaces to the application on either arm",
            serial["errors"] == 0 and burst["errors"] == 0,
            f"errors serial={serial['errors']} burst={burst['errors']}",
        )

    lf_s = _logical_fingerprint(serial_rows["steady"])
    lf_b = _logical_fingerprint(burst_rows["steady"])
    result.check(
        "steady: logical metrics fingerprints are equal (content digest "
        "+ op counts + translator cache counters)",
        lf_s == lf_b,
        f"serial={lf_s[:12]} burst={lf_b[:12]}; "
        f"cm serial={serial_rows['steady']['cm']} burst={burst_rows['steady']['cm']}",
    )
    result.extras["logical_fingerprints"] = {"serial": lf_s, "burst": lf_b}

    fp = burst_rows["steady"]["fastpath"]
    result.check(
        "steady: both singleflight tables engaged on the burst arm "
        "(stats followed a stat, gets followed a get)",
        fp["stat_sf_follows"] > 0 and fp["sf_follows"] > 0,
        f"attribution: {fp}",
    )
    result.check(
        "serial arms never follow: with nothing in flight every counter "
        "stays zero (the table observes concurrency, not a flag)",
        all(v == 0 for s in SCENARIOS for v in serial_rows[s]["fastpath"].values()),
        str({s: serial_rows[s]["fastpath"] for s in SCENARIOS}),
    )
    result.check(
        "chaos: the fault schedule demonstrably ran on both arms",
        serial_rows["chaos"]["fault_log"] > 0 and burst_rows["chaos"]["fault_log"] > 0,
        f"fault transitions serial={serial_rows['chaos']['fault_log']} "
        f"burst={burst_rows['chaos']['fault_log']}",
    )

    result.extras["attribution"] = {s: burst_rows[s]["fastpath"] for s in SCENARIOS}
    result.extras["mcclient"] = {
        s: {"serial": serial_rows[s]["mcclient"], "burst": burst_rows[s]["mcclient"]}
        for s in SCENARIOS
    }
    if "tenants" in burst_rows["tenants"]:
        result.extras["tenant_hits"] = {
            "serial": serial_rows["tenants"].get("tenants", {}),
            "burst": burst_rows["tenants"].get("tenants", {}),
        }
    result.notes.append(
        "Equality is asserted at the application boundary: bytes, stat "
        "sizes, op counts, and (fault-free) translator cache counters. "
        "Transport-level counts (MCD round trips, scheduler events) "
        "shrink on the burst arm by design — see the attribution table."
    )
    return result
