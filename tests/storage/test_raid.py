"""Tests for RAID-0 striping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.storage import Raid0
from repro.storage.disk import DiskProfile
from repro.util import KiB, MiB

FAST = DiskProfile(
    name="fast-test",
    capacity=1 << 40,
    streaming_bandwidth=100 * MiB,
    avg_seek=0.008,
    half_rotation=0.004,
    per_op_overhead=0.0001,
)


def one_access(raid, offset, size, write=False):
    sim = raid.sim

    def proc(sim, raid):
        yield raid.access_time(offset, size, write)

    sim.process(proc(sim, raid))
    sim.run()
    return sim.now


def test_split_round_robin():
    sim = Simulator()
    raid = Raid0(sim, disks=4, profile=FAST, chunk_size=64 * KiB)
    split = raid._split(0, 256 * KiB)
    assert sorted(split) == [0, 1, 2, 3]
    for disk_idx, runs in split.items():
        assert runs == [(0, 64 * KiB)]


def test_split_merges_contiguous_member_runs():
    sim = Simulator()
    raid = Raid0(sim, disks=2, profile=FAST, chunk_size=64 * KiB)
    # Chunks 0,2 -> disk 0 member offsets 0,64K (contiguous); 1,3 -> disk 1.
    split = raid._split(0, 256 * KiB)
    assert split[0] == [(0, 128 * KiB)]
    assert split[1] == [(0, 128 * KiB)]


def test_split_partial_chunk():
    sim = Simulator()
    raid = Raid0(sim, disks=2, profile=FAST, chunk_size=64 * KiB)
    split = raid._split(60 * KiB, 8 * KiB)
    assert split[0] == [(60 * KiB, 4 * KiB)]
    assert split[1] == [(0, 4 * KiB)]


def test_large_sequential_read_approaches_n_times_bandwidth():
    size = 64 * MiB
    t1 = one_access(Raid0(Simulator(), disks=1, profile=FAST), 0, size)
    t8 = one_access(Raid0(Simulator(), disks=8, profile=FAST), 0, size)
    speedup = t1 / t8
    assert speedup > 5  # approaches 8x minus overheads


def test_small_access_pays_single_disk_cost():
    t = one_access(Raid0(Simulator(), disks=8, profile=FAST), 0, 4 * KiB)
    expected = 0.0001 + 0.008 + 0.004 + 4 * KiB / (100 * MiB)
    assert t == pytest.approx(expected)


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Raid0(sim, disks=0)
    with pytest.raises(ValueError):
        Raid0(sim, chunk_size=128)
    raid = Raid0(sim, disks=2, profile=FAST)
    with pytest.raises(ValueError):
        raid.access_time(-5, 10)
    with pytest.raises(ValueError):
        raid.access_time(raid.capacity, 1)


def test_stats():
    sim = Simulator()
    raid = Raid0(sim, disks=2, profile=FAST)

    def proc(sim, raid):
        yield raid.access_time(0, 1000)
        yield raid.access_time(0, 500, write=True)

    sim.process(proc(sim, raid))
    sim.run()
    assert raid.stats.get("reads") == 1
    assert raid.stats.get("writes") == 1
    assert raid.stats.get("bytes") == 1500


def _split_access_time(raid, offset, size, write=False):
    """Every non-empty access through ``_split``, the general path:
    what ``access_time`` did for one that fits in a chunk too."""
    values = raid.stats.values
    kind = "writes" if write else "reads"
    values[kind] = values.get(kind, 0) + 1
    values["bytes"] = values.get("bytes", 0) + size
    done = raid.sim.now
    for disk_idx, runs in raid._split(offset, size).items():
        for member_off, length in runs:
            done = max(done, raid.members[disk_idx].access_time(member_off, length, write))
    return done


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([512, 4 * KiB, 64 * KiB]),
    st.lists(
        st.tuples(
            st.integers(0, 4 * MiB),
            st.integers(1, 80 * KiB),
            st.booleans(),
            st.sampled_from([0.0, 1e-6, 3e-3, 0.02]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_one_chunk_shortcut_matches_the_split_path(disks, chunk_size, accesses):
    """Twin arrays, one driven by ``access_time`` (whose one-chunk
    accesses skip ``_split``), the other by the split path for every
    access: the same completion times, member heads and stats."""
    fast_sim, split_sim = Simulator(), Simulator()
    fast = Raid0(fast_sim, disks=disks, profile=FAST, chunk_size=chunk_size)
    split = Raid0(split_sim, disks=disks, profile=FAST, chunk_size=chunk_size)
    for offset, size, write, gap in accesses:
        if gap:
            fast_sim.run(until=fast_sim.now + gap)
            split_sim.run(until=split_sim.now + gap)
        assert fast.access_time(offset, size, write) == _split_access_time(
            split, offset, size, write
        )
    assert [d.head for d in fast.members] == [d.head for d in split.members]
    assert [d.stats.as_dict() for d in fast.members] == [
        d.stats.as_dict() for d in split.members
    ]
    assert [d.arm.busy_time for d in fast.members] == [d.arm.busy_time for d in split.members]
    assert fast.stats.as_dict() == split.stats.as_dict()
