"""Tests for the disk model: seeks, streaming, FIFO arm."""

import pytest

from repro.sim import Simulator
from repro.storage import Disk, DiskProfile, SATA_2007
from repro.util import KiB, MiB


FAST = DiskProfile(
    name="fast-test",
    capacity=1 << 40,
    streaming_bandwidth=100 * MiB,
    avg_seek=0.008,
    half_rotation=0.004,
    per_op_overhead=0.0001,
)


def run_accesses(disk, accesses):
    """Drive a list of (offset, size) accesses sequentially; return the
    list of completion times."""
    times = []
    sim = disk.sim

    def proc(sim, disk):
        for off, size in accesses:
            yield disk.access_time(off, size)
            times.append(sim.now)

    sim.process(proc(sim, disk))
    sim.run()
    return times


def test_first_access_pays_seek():
    sim = Simulator()
    disk = Disk(sim, FAST)
    (t,) = run_accesses(disk, [(1 * MiB, 4 * KiB)])
    expected = 0.0001 + 0.008 + 0.004 + 4 * KiB / (100 * MiB)
    assert t == pytest.approx(expected)


def test_sequential_run_seeks_once():
    sim = Simulator()
    disk = Disk(sim, FAST)
    n = 10
    size = 64 * KiB
    accesses = [(i * size, size) for i in range(n)]
    times = run_accesses(disk, accesses)
    expected = (0.008 + 0.004) + n * (0.0001 + size / (100 * MiB))
    assert times[-1] == pytest.approx(expected)
    assert disk.stats.get("seeks") == 1


def test_random_accesses_each_seek():
    sim = Simulator()
    disk = Disk(sim, FAST)
    accesses = [(i * 100 * MiB + 1, 4 * KiB) for i in range(5)]
    run_accesses(disk, accesses)
    assert disk.stats.get("seeks") == 5


def test_random_vs_sequential_throughput_gap():
    """The motivation effect (§3): random small I/O is orders of
    magnitude slower than streaming."""
    size = 4 * KiB
    n = 50

    sim1 = Simulator()
    seq = Disk(sim1, FAST)
    t_seq = run_accesses(seq, [(i * size, size) for i in range(n)])[-1]

    sim2 = Simulator()
    rnd = Disk(sim2, FAST)
    t_rnd = run_accesses(rnd, [((i * 7919) % 1000 * MiB, size) for i in range(n)])[-1]

    assert t_rnd / t_seq > 20


def test_arm_is_fifo_under_concurrency():
    sim = Simulator()
    disk = Disk(sim, FAST)
    done = []

    def client(sim, disk, tag, off):
        yield disk.access_time(off, 4 * KiB)
        done.append(tag)

    for tag, off in [("a", 0), ("b", 1 * MiB), ("c", 2 * MiB)]:
        sim.process(client(sim, disk, tag, off))
    sim.run()
    assert done == ["a", "b", "c"]


def test_capacity_bounds():
    sim = Simulator()
    disk = Disk(sim, FAST)
    with pytest.raises(ValueError):
        disk.access_time(FAST.capacity, 1)
    with pytest.raises(ValueError):
        disk.access_time(-1, 10)


def test_stats_counting():
    sim = Simulator()
    disk = Disk(sim, FAST)

    def proc(sim, disk):
        yield disk.access_time(0, 100)
        yield disk.access_time(100, 50, write=True)

    sim.process(proc(sim, disk))
    sim.run()
    assert disk.stats.get("reads") == 1
    assert disk.stats.get("writes") == 1
    assert disk.stats.get("bytes") == 150


def test_default_profile_sane():
    assert SATA_2007.streaming_bandwidth > 50 * MiB
    assert 0.001 < SATA_2007.avg_seek < 0.02
