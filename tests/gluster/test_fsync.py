"""Tests for fsync: write-back durability through the full stack."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.localfs import LocalFS
from repro.oscache import PageCache
from repro.sim import Simulator
from repro.storage import Raid0
from repro.util import KiB, MiB


def drive(sim, gen):
    p = sim.process(gen)
    sim.run(until=p)
    return p.value


def test_localfs_fsync_waits_for_writeback():
    sim = Simulator()
    fs = LocalFS(sim, Raid0(sim, disks=1), PageCache(64 * MiB))

    def w():
        yield from fs.create("/f")
        t0 = sim.now
        yield from fs.write("/f", 0, 1 * MiB)
        write_elapsed = sim.now - t0
        t1 = sim.now
        yield from fs.fsync("/f")
        fsync_elapsed = sim.now - t1
        return write_elapsed, fsync_elapsed

    write_elapsed, fsync_elapsed = drive(sim, w())
    # Write-back: the write returns immediately; fsync pays the device.
    assert write_elapsed < 0.001
    assert fsync_elapsed > 0.005  # ~1 MiB at disk speed + seek


def test_localfs_fsync_after_flush_is_instant():
    sim = Simulator()
    fs = LocalFS(sim, Raid0(sim, disks=1), PageCache(64 * MiB))

    def w():
        yield from fs.create("/f")
        yield from fs.write("/f", 0, 4 * KiB)
        yield from fs.fsync("/f")  # waits out the flush
        t0 = sim.now
        yield from fs.fsync("/f")  # nothing dirty now
        return sim.now - t0

    assert drive(sim, w()) == 0.0


def test_fsync_on_clean_file_is_instant():
    sim = Simulator()
    fs = LocalFS(sim, Raid0(sim, disks=1), PageCache(64 * MiB))

    def w():
        yield from fs.create("/f")
        t0 = sim.now
        yield from fs.fsync("/f")
        return sim.now - t0

    assert drive(sim, w()) == 0.0


def test_fsync_through_gluster_stack():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1))
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 1 * MiB)
        t0 = tb.sim.now
        yield from c.fsync(fd)
        return tb.sim.now - t0

    elapsed = drive(tb.sim, w())
    assert elapsed > 0.005  # durability barrier reached the RAID
    assert tb.server.stats.get("fop_fsync") == 1
    assert tb.server.fs.stats.get("fsyncs") == 1
