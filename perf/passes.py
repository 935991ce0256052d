"""One measurement pass over one workload, run in a child process.

Three kinds of pass:

``plain``
    set-up (timed) -> warm-up segments -> timed segments with tracing
    off -> optionally a few more segments under ``cProfile``.
``obs``
    the same set-up with ``Observability(trace=True, oplog=True)`` ->
    warm-up -> a fixed number of traced segments.
``setup``
    set-up only, for the median set-up time.

Around every segment the host speed is sampled with
:mod:`calibrate`; a segment whose two samples disagree by more than
``calibrate.MAX_DRIFT`` is dropped from the host-speed metrics (never
from the exact simulated ones).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import math
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Optional

import calibrate
import ledger
from workloads import BY_NAME, KIND_NAMES, Bench

from repro import Observability


@dataclass(frozen=True)
class Shape:
    """How many segments of each kind a pass runs."""

    #: Untimed segments after set-up, before anything is measured.
    warmup: int
    #: Exact (simulated) statistics cover the first this-many timed
    #: segments, whatever the host's speed lets the run fit in; fewer
    #: survivors of the calibration filter than this and the host is
    #: too noisy to measure.
    exact: int
    #: Segments under ``cProfile``.  Profiling costs about 3x per
    #: segment, and two segments (thousands of operations) already give
    #: stable shares.
    profile: int
    #: Segments of the obs pass; compared with the first as many timed
    #: segments of the plain pass.
    obs: int
    cal_iters: int


FULL = Shape(warmup=2, exact=12, profile=2, obs=4, cal_iters=calibrate.SAMPLE_ITERS)
#: The smoke test: short samples, few segments; its numbers mean nothing.
QUICK = Shape(warmup=1, exact=2, profile=1, obs=2, cal_iters=calibrate.SAMPLE_ITERS // 10)

#: Hard cap on timed segments in one pass.
MAX_SEGMENTS = 40

_DIGEST_REC = struct.Struct("<Bdq")


@dataclass
class Segment:
    raw_s: float
    cal_before: float
    cal_after: float
    ops: int
    events: int
    sim_s: float
    failed: int
    #: Per op kind: simulated latencies in seconds, issue order.
    latencies: dict[int, list[float]] = field(repr=False)
    #: Cumulative sim digest after this segment.
    digest: str

    @property
    def dropped(self) -> bool:
        return calibrate.drift(self.cal_before, self.cal_after) > calibrate.MAX_DRIFT

    @property
    def cal_s(self) -> float:
        return calibrate.calibrated_seconds(self.raw_s, self.cal_before, self.cal_after)

    def row(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "cal_s": self.cal_s,
            "cal_before": self.cal_before,
            "cal_after": self.cal_after,
            "dropped": self.dropped,
            "ops": self.ops,
            "events": self.events,
            "sim_s": self.sim_s,
            "failed": self.failed,
        }


class Runner:
    """Runs segments back to back, sharing each calibration sample
    between the segment before it and the segment after it."""

    def __init__(self, bench: Bench, cal_iters: int) -> None:
        self.bench = bench
        self.cal_iters = cal_iters
        self._hash = hashlib.sha256()
        self._prepare()

    @property
    def planned(self) -> list:
        """The next segment's planned operations."""
        return self._plans

    def _prepare(self) -> None:
        self._plans = self.bench.plan_segment()
        gc.collect()
        self._cal = calibrate.sample(self.cal_iters)

    def segment(self, profiler: Optional[cProfile.Profile] = None) -> Segment:
        sim = self.bench.tb.sim
        plans, before = self._plans, self._cal
        seq0, now0 = sim._seq, sim.now
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        recs = self.bench.run_segment(plans)
        raw = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        events, sim_s = sim._seq - seq0, sim.now - now0

        latencies: dict[int, list[float]] = {}
        failed = ops = 0
        for client_recs in recs:
            for kind, t0, t1, got, ok in client_recs:
                ops += 1
                failed += not ok
                latencies.setdefault(kind, []).append(t1 - t0)
                self._hash.update(_DIGEST_REC.pack(kind, t1, got))
        self._prepare()
        return Segment(
            raw, before, self._cal, ops, events, sim_s, failed,
            latencies, self._hash.hexdigest(),
        )


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def exact_stats(segments: list[Segment]) -> dict:
    """The simulated statistics of a window of segments.  They depend
    on the seed and the code only, never on the host."""
    ops = sum(s.ops for s in segments)
    out = {
        "segments": len(segments),
        "ops": ops,
        "failed": sum(s.failed for s in segments),
        "events_per_op": sum(s.events for s in segments) / ops,
        "sim_ops_per_s": ops / sum(s.sim_s for s in segments),
        "sim_digest": segments[-1].digest,
        "latency_us": {},
    }
    pooled: list[float] = []
    for kind, name in enumerate(KIND_NAMES):
        values = sorted(v for s in segments for v in s.latencies.get(kind, ()))
        pooled.extend(values)
        if values:
            out["latency_us"][name] = _latency_row(values)
    pooled.sort()
    out["latency_us"]["op"] = _latency_row(pooled)
    return out


def _latency_row(sorted_values: list[float]) -> dict:
    return {
        "n": len(sorted_values),
        "mean": statistics.fmean(sorted_values) * 1e6,
        "p50": percentile(sorted_values, 0.50) * 1e6,
        "p99": percentile(sorted_values, 0.99) * 1e6,
    }


def host_stats(segments: list[Segment]) -> dict:
    """Host-speed statistics over the segments that survived the
    calibration-drift filter."""
    kept = [s for s in segments if not s.dropped]
    survivors = len(kept)
    # With no survivor the numbers below are still printed, from every
    # segment; the caller rejects the run on ``segments_kept``.
    kept = kept or segments
    median = statistics.median
    rates = [s.ops / s.cal_s for s in kept]
    return {
        "segments_kept": survivors,
        "segments_dropped": len(segments) - survivors,
        "ops_per_cal_s": median(rates),
        "ops_per_cal_s_spread": quartile_spread(rates),
        "cal_us_per_op": median(s.cal_s * 1e6 / s.ops for s in kept),
        "cal_us_per_event": median(s.cal_s * 1e6 / s.events for s in kept),
        "raw_ops_per_s": median(s.ops / s.raw_s for s in kept),
        "cal_iters_per_s": median((s.cal_before + s.cal_after) / 2 for s in kept),
    }


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when there
    are too few values to tell)."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class NoisyHost(Exception):
    """Too few timed segments survived the calibration filter."""


def run_pass(spec: dict) -> dict:
    """Run one pass and return a JSON-safe result.

    *spec* keys: ``workload``, ``seed``, ``mode`` (plain / obs / setup),
    ``quick``, ``seconds`` (how long the full plain pass measures; the
    quick and obs passes run a fixed number of segments), ``profile``,
    ``corrupt``.
    """
    quick = spec["quick"]
    shape = QUICK if quick else FULL
    workload = BY_NAME[spec["workload"]]
    if quick:
        workload = workload.quick()
    mode = spec["mode"]
    obs = Observability(trace=True, oplog=True) if mode == "obs" else None

    gc.collect()
    cal0 = calibrate.sample(shape.cal_iters)
    start = time.perf_counter()
    bench = Bench(workload, spec["seed"], obs=obs)
    bench.setup()
    setup_raw = time.perf_counter() - start
    gc.collect()
    cal1 = calibrate.sample(shape.cal_iters)
    result: dict = {
        "workload": workload.name,
        "mode": mode,
        "seed": spec["seed"],
        "setup_raw_s": setup_raw,
        "setup_cal_s": calibrate.calibrated_seconds(setup_raw, cal0, cal1),
    }
    if mode == "setup":
        return result

    runner = Runner(bench, shape.cal_iters)
    warmup = [runner.segment() for _ in range(shape.warmup)]

    tracer = bench.tb.obs.tracer
    if tracer.enabled:
        spans0 = len(tracer.spans) + tracer.dropped
        tiers0 = tracer.tier_totals()
    counters0 = ledger.snapshot_counters(bench.tb)

    # Timed segments: the obs and quick passes run a fixed count; the
    # full plain pass runs for ``seconds`` of wall clock and until enough
    # segments survived the calibration filter.
    if mode == "obs":
        fixed = window = shape.obs
    else:
        window = shape.exact
        fixed = window if quick else None
    need = 0 if fixed else window
    deadline = time.perf_counter() + (spec.get("seconds") or 0.0)
    segments: list[Segment] = []
    counters_window = rss_window = None
    while len(segments) < (fixed or MAX_SEGMENTS):
        if (
            fixed is None
            and time.perf_counter() >= deadline
            and len(segments) >= window
            and sum(not s.dropped for s in segments) >= need
        ):
            break
        segments.append(runner.segment())
        if len(segments) == window:
            # Counters and peak memory are read here, after the same work
            # on any host: a fast host fits more segments into ``seconds``,
            # and every further segment keeps its latencies (about 1 MiB
            # each on stat_storm).
            counters_window = ledger.snapshot_counters(bench.tb)
            rss_window = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = host_stats(segments)
    if host["segments_kept"] < need:
        raise NoisyHost(
            f"{workload.name}: only {host['segments_kept']} of {len(segments)} timed "
            f"segments survived the calibration filter (need {need}); "
            "the host is too noisy to measure"
        )

    result.update(
        exact=exact_stats(segments[:window]),
        exact_head=exact_stats(segments[: shape.obs]),
        host=host,
        attempted=sum(s.ops for s in warmup + segments),
        failed=sum(s.failed for s in warmup + segments),
        segments=[s.row() for s in segments],
        counters=ledger.counter_deltas(counters0, counters_window),
        peak_rss_mb=rss_window,
        first_error=bench.first_error,
    )

    if tracer.enabled:
        ops = sum(s.ops for s in segments)
        tiers1 = tracer.tier_totals()
        result["obs"] = {
            "tier_sim_us_per_op": {
                tier: (tiers1[tier] - tiers0.get(tier, 0.0)) * 1e6 / ops
                for tier in sorted(tiers1)
            },
            "spans_per_op": (len(tracer.spans) + tracer.dropped - spans0) / ops,
            "spans_dropped": tracer.dropped,
        }

    extra: list[Segment] = []
    if spec.get("corrupt"):
        bench.corrupt_shadow(runner.planned)
        extra.append(runner.segment())
    if spec.get("profile"):
        profiler = cProfile.Profile()
        profiled = [runner.segment(profiler) for _ in range(shape.profile)]
        extra.extend(profiled)
        result["profile"] = ledger.profile_rows(profiler, sum(s.ops for s in profiled))
        result["profile"]["host"] = host_stats(profiled)
        result["profile"]["segments"] = [s.row() for s in profiled]
    result["attempted"] += sum(s.ops for s in extra)
    result["failed"] += sum(s.failed for s in extra)
    return result
