"""Wall-clock kernel microbenchmarks (events/sec), pytest-benchmark view.

These wrap the same frozen workloads as ``repro bench`` /
``repro.bench.kernel`` — the bare DES kernel, the five-station network
hop, and a fixed fig6-style harness sweep — so the kernel's throughput
shows up alongside the figure benchmarks.  The authoritative trajectory
lives in ``BENCH.json`` (written by ``repro bench``); this file
exists for interactive profiling::

    PYTHONPATH=src pytest benchmarks/bench_kernel.py --benchmark-only
"""

from repro.bench.kernel import (
    HOP_MSGS,
    HOP_SENDERS,
    KERNEL_ITERS,
    KERNEL_PROCS,
    SWEEP_EXPERIMENT,
    SWEEP_SCALE,
    _hop_workload,
    _kernel_workload,
)
from repro.harness import get


def test_kernel_events_per_sec(benchmark):
    events = benchmark(_kernel_workload)
    benchmark.extra_info["events_per_run"] = events
    benchmark.extra_info["workload"] = (
        f"{KERNEL_PROCS} procs x {KERNEL_ITERS} station reservations"
    )
    assert events > 0


def test_hop_events_per_sec(benchmark):
    events = benchmark(_hop_workload)
    benchmark.extra_info["events_per_run"] = events
    benchmark.extra_info["workload"] = (
        f"{HOP_SENDERS} senders x {HOP_MSGS} five-station transfers"
    )
    assert events > 0


def test_sweep_seconds(benchmark):
    exp = get(SWEEP_EXPERIMENT)
    result = benchmark.pedantic(exp.run, args=(SWEEP_SCALE,), rounds=3, iterations=1)
    benchmark.extra_info["experiment"] = f"{SWEEP_EXPERIMENT}@{SWEEP_SCALE}"
    assert result.checks


# -- key-string construction (the CMCache/SMCache hot loop) -----------------
# A steady workload formats the same (path, block_offset) keys millions
# of times; KeyCache turns the f-string format into a dict probe.  The
# two benchmarks below share a workload shape so the win is readable
# straight off the comparison table.
KEY_PATHS = [f"/bench/keys/dir{i % 8}/file{i}" for i in range(64)]
KEY_BLOCKS = [i * 2048 for i in range(32)]
KEY_ROUNDS = 8


def _format_keys_raw() -> int:
    from repro.core.keys import data_key, stat_key

    n = 0
    for _ in range(KEY_ROUNDS):
        for path in KEY_PATHS:
            stat_key(path)
            n += 1
            for off in KEY_BLOCKS:
                data_key(path, off)
                n += 1
    return n


def _format_keys_cached() -> int:
    from repro.core.keys import KeyCache

    kc = KeyCache()
    n = 0
    for _ in range(KEY_ROUNDS):
        for path in KEY_PATHS:
            kc.stat_key(path)
            n += 1
            for off in KEY_BLOCKS:
                kc.data_key(path, off)
                n += 1
    return n


def test_key_format_raw(benchmark):
    n = benchmark(_format_keys_raw)
    benchmark.extra_info["keys_per_run"] = n
    assert n == KEY_ROUNDS * len(KEY_PATHS) * (1 + len(KEY_BLOCKS))


def test_key_format_cached(benchmark):
    n = benchmark(_format_keys_cached)
    benchmark.extra_info["keys_per_run"] = n
    assert n == KEY_ROUNDS * len(KEY_PATHS) * (1 + len(KEY_BLOCKS))
