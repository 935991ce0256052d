"""Client-scale benchmarks and the ``BENCH_scale.json`` report.

Where :mod:`repro.bench.kernel` times small fixed workloads, this suite
measures how the kernel holds up as the *pending-event population*
grows: 1k/10k/100k simulated clients, each holding exactly one
outstanding timer at all times, hammering per-group NIC serialisers.
That is the regime batched event delivery exists for (ROADMAP open
item 1: million-user scenarios).

Two timer-storm variants run per client point:

* **heap** — one schedule entry per visit: the first speed tier, and
  the baseline.
* **tier2** — the second speed tier: batched delivery (each client
  retires its op burst as one
  :meth:`~repro.sim.station.FifoStation.run_batch` wakeup) **plus**
  group-sharded execution via :mod:`repro.harness.sharding`.  Same
  simulated work (identical visit count and per-burst completion
  times), an order of magnitude fewer scheduler events.

The metric is **ops/sec**: simulated station visits retired per
wall-clock second.  Both variants retire the same visit count, so the
``speedup_vs_heap`` section compares like with like; scheduled-event
counts are recorded per result as ``events_per_run``.

Clients are desynchronised arithmetically (no RNG): service demand and
start stagger derive from the global client id, so both variants and
every shard count see the same per-client parameters.

On top of the timer storm, the **end-to-end** points drive the real
IMCa stack — FUSE client → CMCache → memcached client → RPC endpoint
→ MCD/gluster server, every layer the production op path crosses —
at 100k and 1M clients (1k in quick mode).  Clients are packed into
independent *cells* of :data:`E2E_GROUP` concurrent processes sharing
one client stack and statting one hot file — the metadata-hotspot
shape get/stat singleflight exists for; cells are the unit the
sharding layer splits on.  One variant per point,
``scale_<n>_e2e_fastpath`` (the name predates the one op path and is
kept so history and the CI gate compare like with like).

Every point runs one *discarded warmup round* before the measured
rounds, so medians come from a warm process (allocator, bytecode, and
branch caches hot) — a cold first run used to skew ``scale_1k_tier2``
by ~2.4x.

The workloads are frozen: any change to their shape invalidates the
trajectory.  Tune the kernel, not the benchmark.
"""

from __future__ import annotations

import datetime
import time
from typing import Optional

from repro.bench.kernel import BenchResult, _git_sha, _machine_info, _median
from repro.harness.sharding import plan_shards, run_sharded
from repro.sim.core import Simulator
from repro.sim.station import FifoStation
from repro.sim.sync import Barrier
from repro.workloads.base import drive

#: Canonical report location (repo root when run from a checkout).
BENCH_SCALE_FILE = "BENCH_scale.json"

#: Frozen workload shape.  Changing these invalidates the trajectory.
CLIENT_POINTS = (1_000, 10_000, 100_000)
QUICK_POINTS = (1_000,)
#: Clients sharing one single-server NIC serialiser; groups never share
#: state, so they are the independent unit the sharding layer splits on.
GROUP_SIZE = 10
OPS_PER_CLIENT = 20
#: Visits retired per batched wakeup in the tier2 variant.
BURST = 10

DEFAULT_ROUNDS = 3
QUICK_ROUNDS = 3

#: Frozen end-to-end workload shape (see module docstring).
E2E_POINTS = (100_000, 1_000_000)
E2E_QUICK_POINTS = (1_000,)
#: Concurrent client processes per cell.  One cell = one single-client
#: single-MCD testbed whose client stack all E2E_GROUP processes share,
#: so their identical gets and stats share one fetch; distinct cells
#: share nothing and are the independent unit the sharding layer splits.
E2E_GROUP = 1_000
#: Each client performs one stat and one record read per run.
E2E_OPS_PER_CLIENT = 2
E2E_FILE_SIZE = 16 * 1024
E2E_RECORD = 2 * 1024
E2E_RECORDS = E2E_FILE_SIZE // E2E_RECORD
E2E_MCD_MEMORY = 4 * 1024 * 1024


def _label(clients: int) -> str:
    if clients >= 1_000_000 and clients % 1_000_000 == 0:
        return f"{clients // 1_000_000}m"
    return f"{clients // 1000}k"


def _launch(sim: Simulator, station: FifoStation, gid: int, batched: bool) -> None:
    """Install one timer-storm client as a callback chain.

    No generator process: each completion callback books the client's
    next visit directly, so per-event cost is almost pure scheduler —
    exactly what this suite wants to measure.  Every client holds one
    pending event at all times, keeping the pending population equal to
    the client count.
    """
    service = 1e-6 + (gid % 23) * 1e-7
    remaining = OPS_PER_CLIENT
    if batched:

        def fire(_ev) -> None:
            nonlocal remaining
            if remaining:
                take = BURST if remaining >= BURST else remaining
                remaining -= take
                sim.at(station.run_batch([service] * take)).callbacks.append(fire)

    else:

        def fire(_ev) -> None:
            nonlocal remaining
            if remaining:
                remaining -= 1
                sim.at(station.run(service)).callbacks.append(fire)

    kick = sim.timeout((gid % 101) * 1e-6)
    kick.callbacks.append(fire)


def _storm_shard(spec, batched: bool) -> dict:
    """One shard of the timer storm: simulate a contiguous range of
    client *groups* (``spec`` ids are group ids — the independent unit)
    to completion and return summable metrics.
    """
    sim = Simulator()
    sim.track_station_waits = False
    for g in range(spec.client_lo, spec.client_hi):
        station = FifoStation(sim, name=f"nic{g}")
        for c in range(GROUP_SIZE):
            _launch(sim, station, g * GROUP_SIZE + c, batched)
    if spec.window_stop is None:
        sim.run()
    else:
        sim.run(until=spec.window_stop)
    return {
        "clients": spec.clients * GROUP_SIZE,
        "ops": spec.clients * GROUP_SIZE * OPS_PER_CLIENT,
        "events": sim._seq,
    }


def _storm_run(clients: int, batched: bool, shards: int) -> tuple[dict, float]:
    """Run one client point once; returns (merged metrics, seconds)."""
    specs = plan_shards(clients // GROUP_SIZE, shards)
    t0 = time.perf_counter()
    merged = run_sharded(_storm_shard, specs, batched)
    elapsed = time.perf_counter() - t0
    if merged["ops"] != clients * OPS_PER_CLIENT:
        raise RuntimeError(
            f"scale bench dropped work: {merged['ops']} ops retired, "
            f"expected {clients * OPS_PER_CLIENT}"
        )
    return merged, elapsed


def _e2e_cell() -> tuple[int, int]:
    """Build, warm, and drive one end-to-end cell to completion.

    Returns ``(ops, events)`` for the measured burst.
    The warm pass (create + stat + full record sweep) keeps the
    measured ops on the production hit path rather than timing cold
    fills; its ops are not counted.
    """
    from repro.cluster import TestbedConfig, build_gluster_testbed

    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=1, mcd_memory=E2E_MCD_MEMORY)
    )
    sim = tb.sim
    client = tb.clients[0]
    fds: dict[str, int] = {}

    def warm():
        fds["hot"] = yield from client.create("/e2e/hot")
        yield from client.write(fds["hot"], 0, E2E_FILE_SIZE, None)
        fds["data"] = yield from client.create("/e2e/data")
        yield from client.write(fds["data"], 0, E2E_FILE_SIZE, None)
        yield from client.stat("/e2e/hot")
        for k in range(E2E_RECORDS):
            yield from client.read(fds["data"], k * E2E_RECORD, E2E_RECORD)

    drive(sim, warm())

    barrier = Barrier(sim, E2E_GROUP)

    def proc(g: int):
        yield barrier.wait()
        yield from client.stat("/e2e/hot")
        yield from client.read(
            fds["data"], (g % E2E_RECORDS) * E2E_RECORD, E2E_RECORD
        )

    procs = [sim.process(proc(g)) for g in range(E2E_GROUP)]
    done = sim.all_of(procs)
    sim.run(until=done)
    return E2E_GROUP * E2E_OPS_PER_CLIENT, sim._seq


def _e2e_shard(spec) -> dict:
    """One shard of the end-to-end run: ``spec`` ids are cell ids."""
    ops = events = 0
    for _ in range(spec.client_lo, spec.client_hi):
        o, e = _e2e_cell()
        ops += o
        events += e
    return {"clients": spec.clients * E2E_GROUP, "ops": ops, "events": events}


def _e2e_run(clients: int, shards: int) -> tuple[dict, float]:
    """Run one end-to-end client point once; (merged metrics, seconds)."""
    if clients % E2E_GROUP:
        raise ValueError(f"e2e points must be multiples of {E2E_GROUP}")
    specs = plan_shards(clients // E2E_GROUP, shards)
    t0 = time.perf_counter()
    merged = run_sharded(_e2e_shard, specs)
    elapsed = time.perf_counter() - t0
    if merged["ops"] != clients * E2E_OPS_PER_CLIENT:
        raise RuntimeError(
            f"e2e bench dropped work: {merged['ops']} ops retired, "
            f"expected {clients * E2E_OPS_PER_CLIENT}"
        )
    return merged, elapsed


def _bench_point(name: str, run_once, rounds: int) -> BenchResult:
    # One discarded warmup round: the first run in a fresh process pays
    # allocator growth and bytecode/branch warmup, skewing the median of
    # small round counts (scale_1k_tier2 measured 945k vs ~2.3M warm).
    run_once()
    runs = []
    events = 0
    for _ in range(rounds):
        merged, elapsed = run_once()
        events = merged["events"]
        runs.append(merged["ops"] / elapsed)
    return BenchResult(name, "ops_per_sec", _median(runs), runs, events)


def run_scale_benchmarks(
    quick: bool = False, rounds: Optional[int] = None, shards: int = 1
) -> dict:
    """Run the scale suite; report shape matches the kernel suite so the
    same baseline/check plumbing applies.

    ``shards`` is the shard count for the tier2 and end-to-end variants
    (wall-clock parallelism additionally needs an active
    :func:`~repro.harness.parallel.job_pool`; without one the shards
    run inline, which still exercises the deterministic merge).
    """
    k = rounds if rounds is not None else (QUICK_ROUNDS if quick else DEFAULT_ROUNDS)
    points = QUICK_POINTS if quick else CLIENT_POINTS
    results: list[BenchResult] = []
    for clients in points:
        results.append(
            _bench_point(
                f"scale_{_label(clients)}_heap",
                lambda c=clients: _storm_run(c, False, 1),
                k,
            )
        )
        results.append(
            _bench_point(
                f"scale_{_label(clients)}_tier2",
                lambda c=clients: _storm_run(c, True, shards),
                k,
            )
        )

    e2e_points = E2E_QUICK_POINTS if quick else E2E_POINTS
    for clients in e2e_points:
        results.append(
            _bench_point(
                f"scale_{_label(clients)}_e2e_fastpath",
                lambda c=clients: _e2e_run(c, shards),
                k,
            )
        )

    report = {
        "schema": 1,
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": _machine_info(),
        "mode": "quick" if quick else "full",
        "rounds": k,
        "shards": shards,
        "results": {r.name: r.to_dict() for r in results},
    }
    medians = {r.name: r.median for r in results}
    report["speedup_vs_heap"] = {
        f"scale_{_label(c)}": {
            "tier2": medians[f"scale_{_label(c)}_tier2"]
            / medians[f"scale_{_label(c)}_heap"]
        }
        for c in points
    }
    return report
