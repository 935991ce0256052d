"""Tests for the local filesystem model."""

import pytest

from repro.localfs import FsError, LocalFS, ReadResult
from repro.oscache import PageCache
from repro.sim import Simulator
from repro.storage import Raid0
from repro.storage.disk import DiskProfile
from repro.util import KiB, MiB
from repro.util.intervals import HOLE

FAST = DiskProfile(
    name="fast-test",
    capacity=1 << 40,
    streaming_bandwidth=100 * MiB,
    avg_seek=0.008,
    half_rotation=0.004,
    per_op_overhead=0.0001,
)


def make_fs(cache_bytes=64 * MiB, meta_entries=1 << 16):
    sim = Simulator()
    fs = LocalFS(
        sim,
        device=Raid0(sim, disks=2, profile=FAST),
        page_cache=PageCache(cache_bytes),
        meta_cache_entries=meta_entries,
    )
    return sim, fs


def drive(sim, gen):
    """Run a single FS operation generator to completion."""
    p = sim.process(gen)
    sim.run()
    return p.value


def test_create_and_stat():
    sim, fs = make_fs()
    st = drive(sim, fs.create("/a"))
    assert st.size == 0 and st.ino >= 1
    st2 = drive(sim, fs.stat("/a"))
    assert st2.ino == st.ino


def test_create_duplicate_raises():
    sim, fs = make_fs()
    drive(sim, fs.create("/a"))
    with pytest.raises(FsError, match="EEXIST"):
        drive(sim, fs.create("/a"))


def test_stat_missing_raises():
    sim, fs = make_fs()
    with pytest.raises(FsError, match="ENOENT"):
        drive(sim, fs.stat("/nope"))


def test_write_then_read_roundtrip_bytes():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    payload = bytes(range(256)) * 8
    drive(sim, fs.write("/f", 0, len(payload), data=payload))
    r: ReadResult = drive(sim, fs.read("/f", 0, len(payload)))
    assert r.size == len(payload)
    assert r.data == payload


def test_write_updates_size_and_mtime():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    t0 = sim.now
    drive(sim, fs.write("/f", 1000, 24, data=b"x" * 24))
    st = drive(sim, fs.stat("/f"))
    assert st.size == 1024
    assert st.mtime >= t0


def test_read_past_eof_is_short():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    drive(sim, fs.write("/f", 0, 100, data=b"a" * 100))
    r = drive(sim, fs.read("/f", 50, 500))
    assert r.size == 50
    r2 = drive(sim, fs.read("/f", 200, 10))
    assert r2.size == 0


def test_read_holes_reported():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    drive(sim, fs.write("/f", 100, 50))
    r = drive(sim, fs.read("/f", 0, 150))
    assert r.intervals[0] == (0, 100, HOLE)
    assert r.intervals[1][2] != HOLE


def test_versions_increase_per_write():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    v1 = drive(sim, fs.write("/f", 0, 10))
    v2 = drive(sim, fs.write("/f", 0, 10))
    assert v2 > v1
    r = drive(sim, fs.read("/f", 0, 10))
    assert r.intervals == [(0, 10, v2)]


def test_cached_read_faster_than_cold():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    drive(sim, fs.write("/f", 0, 64 * KiB))
    # Evict pages to time a cold read.
    fs.page_cache.clear()
    t0 = sim.now
    drive(sim, fs.read("/f", 0, 64 * KiB))
    cold = sim.now - t0
    t0 = sim.now
    drive(sim, fs.read("/f", 0, 64 * KiB))
    warm = sim.now - t0
    assert warm < cold / 10


def test_meta_cache_makes_repeat_stat_free():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    fs.meta_cache.clear()
    t0 = sim.now
    drive(sim, fs.stat("/f"))
    cold = sim.now - t0
    t0 = sim.now
    drive(sim, fs.stat("/f"))
    warm = sim.now - t0
    assert cold > 0
    assert warm == 0.0


def test_large_file_drops_literal_bytes_keeps_versions():
    sim, fs = make_fs()
    drive(sim, fs.create("/big"))
    v = None
    step = 1 * MiB
    for i in range(20):  # 20 MiB > STORE_DATA_LIMIT
        v = drive(sim, fs.write("/big", i * step, step))
    r = drive(sim, fs.read("/big", 19 * step, 100))
    assert r.data is None
    assert r.intervals == [(19 * step, 19 * step + 100, v)]


def test_unlink_removes_and_invalidates():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    drive(sim, fs.write("/f", 0, 4096))
    drive(sim, fs.unlink("/f"))
    assert not fs.exists("/f")
    with pytest.raises(FsError):
        drive(sim, fs.read("/f", 0, 10))
    assert len(fs.page_cache) == 0


def test_truncate_shrinks_and_clears_content():
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    drive(sim, fs.write("/f", 0, 1000, data=b"z" * 1000))
    drive(sim, fs.truncate("/f", 100))
    st = drive(sim, fs.stat("/f"))
    assert st.size == 100
    r = drive(sim, fs.read("/f", 0, 100))
    assert r.data == b"z" * 100
    # Re-extend: bytes above 100 are holes now.
    drive(sim, fs.truncate("/f", 200))
    r2 = drive(sim, fs.read("/f", 100, 100))
    assert r2.intervals == [(100, 200, HOLE)]


def test_sequential_write_is_streaming():
    """Per-write device time after the first must not pay seeks."""
    sim, fs = make_fs()
    drive(sim, fs.create("/f"))
    drive(sim, fs.write("/f", 0, 4096))
    t0 = sim.now
    n = 16
    for i in range(1, n + 1):
        drive(sim, fs.write("/f", i * 4096, 4096))
    per_op = (sim.now - t0) / n
    assert per_op < 0.002  # no 12ms seek+rotate per op


def _disk_bound_reads(old_wait):
    """Twelve readers, each on its own uncached 16 KiB file, queued on
    the array behind the files' own inode and write-back I/O from
    staggered starts; returns each reader's ``(path, wake time)`` in
    wake order."""
    sim, fs = make_fs()
    wakes = []

    def reader(path, start):
        # The file exists at once; its inode write queues on the array.
        sim.process(fs.create(path))
        yield sim.timeout(start)
        yield from fs.write(path, 0, 16 * KiB)
        inode = fs._files[path]
        fs.page_cache.invalidate(inode.stat.ino, 0, 16 * KiB)
        if old_wait:
            # ``read``'s device booking, then the Timeout it slept on.
            now = sim.now
            missing = fs.page_cache.lookup(inode.stat.ino, 0, 16 * KiB)
            done = now
            for m_off, m_len in missing:
                for dev_off, length in fs._device_runs(inode, m_off, m_len):
                    done = max(done, fs.device.access_time(dev_off, length))
            fs.page_cache.insert(inode.stat.ino, 0, 16 * KiB)
            yield sim.timeout(done - now)
        else:
            yield from fs.read(path, 0, 16 * KiB)
        wakes.append((path, sim.now))

    for i in range(12):
        sim.process(reader(f"/q{i}", (i + 1) * 1e-3))
    sim.run()
    return wakes


def test_disk_bound_reads_wake_where_their_timeouts_did():
    """A read that misses the page cache sleeps on a float, not a
    ``Timeout``: twelve queued readers wake at the same instants, in
    the same order, as readers that slept on the Timeout."""
    wakes = _disk_bound_reads(old_wait=False)
    assert len(wakes) == 12
    assert wakes == _disk_bound_reads(old_wait=True)


class _FixedDevice:
    """A device whose every access completes at ``done``."""

    capacity = 1 << 40

    def __init__(self, done):
        self.done = done

    def access_time(self, offset, size, write=False):
        return self.done


def test_disk_bound_read_wakes_at_now_plus_its_delay_not_at_done():
    """The wake is ``now + (done - now)``, the instant
    ``sim.timeout(done - now)`` fires at, and for these two clocks that
    is not ``done`` itself."""
    now, done = 0.0018939132855435616, 0.03493836226044441
    assert now + (done - now) != done
    woke = []
    for old_wait in (False, True):
        sim = Simulator()
        device = _FixedDevice(0.0)
        fs = LocalFS(sim, device=device, page_cache=PageCache(64 * MiB))
        drive(sim, fs.create("/f"))
        drive(sim, fs.write("/f", 0, 16 * KiB))
        fs.page_cache.clear()
        sim.run(until=now)
        device.done = done

        def reader():
            if old_wait:
                yield sim.timeout(done - sim.now)
            else:
                yield from fs.read("/f", 0, 16 * KiB)
            woke.append(sim.now)

        sim.process(reader())
        sim.run()
    assert woke[0] == woke[1] == now + (done - now)
