"""Read-path optimisations: partial fills, readahead, the hot cache —
plus the satellite fixes that ride along (key-string memoisation,
open-db refcounting, write push ordering)."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.blocks import BlockMapper, missing_ranges
from repro.core.cmcache import MAX_FILL_RANGES
from repro.core.config import IMCaConfig
from repro.core.hotcache import HotCache
from repro.core.keys import KeyCache, data_key, stat_key
from repro.util import KiB
from repro.util.intervals import coalesce_spans

BS = 2 * KiB


def make(num_clients=1, num_mcds=2, imca=None, **kw):
    cfg = TestbedConfig(
        num_clients=num_clients,
        num_mcds=num_mcds,
        imca=imca or IMCaConfig(),
        **kw,
    )
    return build_gluster_testbed(cfg)


def drive(tb, gen):
    p = tb.sim.process(gen)
    tb.sim.run()
    return p.value


def payload(size, phase=0):
    return bytes((phase + i) % 256 for i in range(size))


def write_file(tb, path, data):
    c = tb.clients[0]

    def w():
        fd = yield from c.create(path)
        yield from c.write(fd, 0, len(data), data)
        yield from c.close(fd)
        fd = yield from c.open(path)
        yield from c.stat(path)
        yield from c.read(fd, 0, len(data))  # warm every block
        return fd

    return drive(tb, w())


def evict(tb, path, offsets):
    for off in offsets:
        key = data_key(path, off)
        for mcd in tb.mcds:
            mcd.engine.delete(key)


# --------------------------------------------------------------------------- #
# unit: span coalescing and fill-range arithmetic
# --------------------------------------------------------------------------- #
def test_coalesce_spans():
    assert coalesce_spans([]) == []
    assert coalesce_spans([3]) == [(3, 4)]
    assert coalesce_spans([1, 2, 3]) == [(1, 4)]
    assert coalesce_spans([5, 1, 2, 9, 8]) == [(1, 3), (5, 6), (8, 10)]
    assert coalesce_spans([4, 4, 5]) == [(4, 6)]  # duplicates collapse


def test_missing_ranges_block_aligned():
    m = BlockMapper(2048)
    assert missing_ranges(m, []) == []
    assert missing_ranges(m, [0, 1, 2]) == [(0, 6144)]
    assert missing_ranges(m, [2, 5, 6]) == [(4096, 2048), (10240, 4096)]


# --------------------------------------------------------------------------- #
# unit: KeyCache memoisation
# --------------------------------------------------------------------------- #
def test_key_cache_matches_plain_functions():
    kc = KeyCache()
    for path in ("/a", "/dir/file", "/x" * 100):
        assert kc.stat_key(path) == stat_key(path)
        for off in (0, 2048, 10**9):
            assert kc.data_key(path, off) == data_key(path, off)
    # Memoised results stay correct on repeat probes.
    assert kc.data_key("/a", 2048) == "/a:2048"
    long_path = "/" + "p" * 300
    assert kc.stat_key(long_path) is None
    assert kc.data_key(long_path, 0) is None


class _Wipes(dict):
    """A key-table dict that counts the wipes landing while *reading*."""

    def __init__(self, reading):
        super().__init__()
        self.reading = reading
        self.mid_read = 0

    def clear(self):
        self.mid_read += self.reading[0]
        super().clear()


def test_key_cache_bounded():
    kc = KeyCache(max_paths=4)
    for i in range(20):
        assert kc.data_key(f"/f{i}", 0) == f"/f{i}:0"
        assert kc.stat_key(f"/f{i}") == f"/f{i}:stat"
    assert len(kc._blocks) <= 4
    assert len(kc._stat) <= 4

    # Shared by a testbed, the bound counts every path of the testbed:
    # one client wipes the table while another is mid-read, and the
    # read, later reads and every key minted after the wipe stay right.
    tb = make(num_clients=2)
    kc = tb.cmcaches[0]._keys
    assert tb.cmcaches[1]._keys is kc and tb.smcaches[0]._keys is kc
    size = 8 * BS
    big = payload(size, 7)
    others = [f"/o{i}" for i in range(6)]
    for i, p in enumerate(others):
        write_file(tb, p, payload(size, i))
    fd = write_file(tb, "/big", big)
    kc.max_paths = 1
    reading = [0]
    kc._blocks, kc._stat = _Wipes(reading), _Wipes(reading)
    a, b = tb.clients
    got, ok = [], []

    def reader():
        reading[0] = 1
        r = yield from a.read(fd, BS // 2, size - BS)
        reading[0] = 0
        got.append(r.data)
        r = yield from a.read(fd, 0, size)
        got.append(r.data)

    def wiper():
        for i, p in enumerate(others):
            yield from b.stat(p)
            bfd = yield from b.open(p)
            r = yield from b.read(bfd, 0, size)
            yield from b.close(bfd)
            ok.append(r.data == payload(size, i))

    tb.sim.process(reader())
    tb.sim.process(wiper())
    tb.sim.run()
    assert kc._blocks.mid_read + kc._stat.mid_read > 0
    assert got == [big[BS // 2 : size - BS // 2], big]
    assert ok == [True] * len(others)
    assert len(kc._blocks) <= 1 and len(kc._stat) <= 1
    for path, keys in kc._blocks.items():
        assert keys == [data_key(path, i * BS) for i in range(len(keys))]
    for path, key in kc._stat.items():
        assert key == stat_key(path)
    assert tb.cm_stats().get("read_hits", 0) > 0


# --------------------------------------------------------------------------- #
# unit: HotCache LRU semantics
# --------------------------------------------------------------------------- #
def test_hot_cache_lru_eviction_by_bytes():
    hc = HotCache(100)
    assert hc.put("a", "/p", "A", 40)
    assert hc.put("b", "/p", "B", 40)
    assert hc.get("a") == "A"  # refresh: b is now LRU
    assert hc.put("c", "/q", "C", 40)  # over budget: evicts b
    assert hc.get("b") is None
    assert hc.get("a") == "A"
    assert hc.evictions == 1
    assert hc.used == 80
    hc.check_invariants()


def test_hot_cache_rejects_oversized_and_replaces():
    hc = HotCache(50)
    assert not hc.put("big", "/p", "X", 51)
    assert hc.put("k", "/p", "v1", 20)
    assert hc.put("k", "/p", "v2", 30)  # replace adjusts accounting
    assert hc.used == 30
    assert hc.get("k") == "v2"
    hc.check_invariants()


def test_hot_cache_path_invalidation():
    hc = HotCache(1000)
    hc.put("/p:0", "/p", "a", 10)
    hc.put("/p:2048", "/p", "b", 10)
    hc.put("/q:0", "/q", "c", 10)
    assert hc.invalidate_path("/p") == 2
    assert hc.get("/p:0") is None
    assert hc.get("/q:0") == "c"
    assert hc.invalidate_path("/missing") == 0
    hc.check_invariants()


# --------------------------------------------------------------------------- #
# unit: config validation
# --------------------------------------------------------------------------- #
def test_config_rejects_bad_readpath_knobs():
    with pytest.raises(ValueError):
        IMCaConfig(readahead_blocks=-1)
    with pytest.raises(ValueError):
        IMCaConfig(hot_cache_bytes=-1)


def test_defaults_leave_features_off_and_counters_silent():
    tb = make()
    fd = write_file(tb, "/f", payload(8 * BS))
    c = tb.clients[0]

    def w():
        yield from c.read(fd, 0, 8 * BS)
        yield from c.read(fd, 2 * BS, 2 * BS)

    drive(tb, w())
    cm = tb.cmcaches[0]
    for counter in cm.metrics.as_dict():
        assert not counter.startswith(("hot_", "prefetch_", "fill_"))
    assert cm.metrics.get("read_partial_hits", 0) == 0


# --------------------------------------------------------------------------- #
# partial-hit fills
# --------------------------------------------------------------------------- #
def test_partial_fill_reads_only_missing_range():
    tb = make(imca=IMCaConfig(partial_fills=True))
    data = payload(8 * BS, phase=3)
    fd = write_file(tb, "/f", data)
    evict(tb, "/f", [5 * BS, 6 * BS, 7 * BS])  # contiguous suffix
    c = tb.clients[0]
    cm = tb.cmcaches[0]
    before = tb.server.stats.get("fop_read", 0)
    misses_before = cm.metrics.get("read_misses", 0)
    r = drive(tb, c.read(fd, 0, 8 * BS))
    assert r.data == data
    assert cm.metrics.get("read_partial_hits") == 1
    assert cm.metrics.get("fill_reads") == 1  # one coalesced range
    assert cm.metrics.get("fill_blocks") == 3
    assert cm.metrics.get("read_misses", 0) == misses_before  # no full miss
    assert tb.server.stats.get("fop_read", 0) - before == 1


def test_partial_fill_concurrent_disjoint_ranges():
    tb = make(imca=IMCaConfig(partial_fills=True))
    data = payload(8 * BS, phase=7)
    fd = write_file(tb, "/f", data)
    evict(tb, "/f", [1 * BS, 4 * BS, 5 * BS])  # two disjoint runs
    c = tb.clients[0]
    r = drive(tb, c.read(fd, 0, 8 * BS))
    assert r.data == data
    cm = tb.cmcaches[0]
    assert cm.metrics.get("fill_reads") == 2
    assert cm.metrics.get("fill_blocks") == 3


def test_partial_fill_fanout_veto_falls_back_to_full_read():
    tb = make(imca=IMCaConfig(partial_fills=True))
    data = payload(10 * BS, phase=9)
    fd = write_file(tb, "/f", data)
    holes = [0, 2 * BS, 4 * BS, 6 * BS, 8 * BS]  # five isolated holes
    assert len(holes) > MAX_FILL_RANGES
    evict(tb, "/f", holes)
    c = tb.clients[0]
    cm = tb.cmcaches[0]
    misses_before = cm.metrics.get("read_misses", 0)
    r = drive(tb, c.read(fd, 0, 10 * BS))
    assert r.data == data
    assert cm.metrics.get("fill_fanout_vetoes") == 1
    assert cm.metrics.get("fill_reads", 0) == 0
    assert cm.metrics.get("read_misses") == misses_before + 1  # full-read path


def test_partial_fill_repushes_filled_blocks():
    """SMCache's read hook re-pushes the fill read's blocks, so the next
    read is a full hit."""
    tb = make(imca=IMCaConfig(partial_fills=True))
    data = payload(8 * BS, phase=11)
    fd = write_file(tb, "/f", data)
    evict(tb, "/f", [6 * BS, 7 * BS])
    c = tb.clients[0]

    def w():
        yield from c.read(fd, 0, 8 * BS)  # partial hit + fill
        before = tb.server.stats.get("fop_read", 0)
        r = yield from c.read(fd, 0, 8 * BS)
        return r, tb.server.stats.get("fop_read", 0) - before

    r, server_reads = drive(tb, w())
    assert r.data == data
    assert server_reads == 0
    assert tb.cmcaches[0].metrics.get("read_hits") >= 1


def test_partial_fill_off_takes_full_miss():
    tb = make()  # defaults: fills off
    data = payload(8 * BS)
    fd = write_file(tb, "/f", data)
    evict(tb, "/f", [7 * BS])
    c = tb.clients[0]
    cm = tb.cmcaches[0]
    misses_before = cm.metrics.get("read_misses", 0)
    r = drive(tb, c.read(fd, 0, 8 * BS))
    assert r.data == data
    assert cm.metrics.get("read_misses") == misses_before + 1
    assert cm.metrics.get("read_partial_hits", 0) == 0


# --------------------------------------------------------------------------- #
# sequential readahead
# --------------------------------------------------------------------------- #
def _stream(tb, fd, size, record):
    c = tb.clients[0]

    def w():
        out = []
        for off in range(0, size, record):
            r = yield from c.read(fd, off, record)
            out.append(r.data)
        return b"".join(out)

    return drive(tb, w())


def test_readahead_prefetches_and_hits():
    tb = make(imca=IMCaConfig(readahead_blocks=4))
    size = 24 * BS
    data = payload(size, phase=5)
    fd = write_file(tb, "/f", data)
    for mcd in tb.mcds:
        mcd.engine.flush_all()  # cold data blocks
    c = tb.clients[0]
    drive(tb, c.stat("/f"))  # miss re-pushes the stat
    got = _stream(tb, fd, size, BS)
    assert got == data
    cm = tb.cmcaches[0]
    assert cm.metrics.get("prefetch_issued", 0) > 0
    assert cm.metrics.get("prefetch_blocks", 0) > 0
    assert cm.metrics.get("prefetch_hits", 0) > 0


def test_readahead_ignores_random_access():
    tb = make(imca=IMCaConfig(readahead_blocks=4))
    size = 16 * BS
    data = payload(size)
    fd = write_file(tb, "/f", data)
    c = tb.clients[0]

    def w():
        # Stride pattern: no two consecutive reads are sequential.
        for idx in (0, 8, 2, 10, 4, 12, 6, 14):
            yield from c.read(fd, idx * BS, BS)

    drive(tb, w())
    assert tb.cmcaches[0].metrics.get("prefetch_issued", 0) == 0


def test_readahead_stops_at_eof():
    tb = make(imca=IMCaConfig(readahead_blocks=8))
    size = 6 * BS
    data = payload(size, phase=1)
    fd = write_file(tb, "/f", data)
    for mcd in tb.mcds:
        mcd.engine.flush_all()
    drive(tb, tb.clients[0].stat("/f"))
    got = _stream(tb, fd, size, BS)
    assert got == data
    cm = tb.cmcaches[0]
    # 6 blocks total: the window must clamp, never read past EOF.
    assert cm.metrics.get("prefetch_blocks", 0) <= 6
    assert cm.metrics.get("prefetch_overruns", 0) == 0


def test_close_counts_unused_prefetches_as_wasted():
    tb = make(imca=IMCaConfig(readahead_blocks=8))
    size = 24 * BS
    fd = write_file(tb, "/f", payload(size))
    for mcd in tb.mcds:
        mcd.engine.flush_all()
    c = tb.clients[0]

    def w():
        yield from c.stat("/f")
        # Read just enough to arm the detector, then abandon the stream.
        yield from c.read(fd, 0, BS)
        yield from c.read(fd, BS, BS)
        yield from c.read(fd, 2 * BS, BS)
        yield from c.close(fd)

    drive(tb, w())
    cm = tb.cmcaches[0]
    assert cm.metrics.get("prefetch_issued", 0) > 0
    assert cm.metrics.get("prefetch_wasted", 0) > 0


# --------------------------------------------------------------------------- #
# hot cache
# --------------------------------------------------------------------------- #
def test_hot_cache_serves_repeats_without_mcd_traffic():
    tb = make(imca=IMCaConfig(hot_cache_bytes=256 * KiB))
    data = payload(4 * BS, phase=2)
    fd = write_file(tb, "/f", data)
    c = tb.clients[0]

    def lookups():
        mc = tb.cmcaches[0].mc
        return mc.stats.get("hits") + mc.stats.get("misses")

    def w():
        t0 = tb.sim.now
        yield from c.read(fd, 0, 4 * BS)  # populates the hot tier
        mcd_elapsed = tb.sim.now - t0
        before = lookups()
        t0 = tb.sim.now
        r = yield from c.read(fd, 0, 4 * BS)
        elapsed = tb.sim.now - t0
        return r, elapsed, mcd_elapsed, lookups() - before

    r, elapsed, mcd_elapsed, extra_lookups = drive(tb, w())
    assert r.data == data
    assert extra_lookups == 0  # served entirely client-side
    assert elapsed < mcd_elapsed  # no MCD round trips left on the path
    cm = tb.cmcaches[0]
    assert cm.metrics.get("hot_data_hits", 0) >= 4
    assert cm.metrics.get("hot_stat_hits", 0) >= 1


def test_hot_cache_not_served_for_closed_files():
    """Close-to-open consistency: without an open session there are no
    invalidation hooks, so the hot tier must not serve the path."""
    tb = make(imca=IMCaConfig(hot_cache_bytes=256 * KiB))
    data = payload(2 * BS)
    fd = write_file(tb, "/f", data)
    c = tb.clients[0]

    def w():
        yield from c.read(fd, 0, 2 * BS)  # hot now holds the blocks
        yield from c.close(fd)
        st = yield from c.stat("/f")  # closed: must not come from hot
        return st

    drive(tb, w())
    cm = tb.cmcaches[0]
    assert len(cm._hot) == 0  # close invalidated the path's entries
    assert cm.metrics.get("hot_invalidated", 0) > 0


def test_hot_cache_invalidated_by_own_write():
    tb = make(imca=IMCaConfig(hot_cache_bytes=256 * KiB))
    data = payload(2 * BS)
    fd = write_file(tb, "/f", data)
    c = tb.clients[0]
    fresh = bytes((x + 77) % 256 for x in range(BS))

    def w():
        yield from c.read(fd, 0, 2 * BS)  # hot
        yield from c.write(fd, 0, BS, fresh)
        r = yield from c.read(fd, 0, BS)
        return r

    r = drive(tb, w())
    assert r.data == fresh


def test_hot_cache_respects_byte_budget():
    # Budget of 3 blocks; a 6-block file cannot fully fit.
    tb = make(imca=IMCaConfig(hot_cache_bytes=3 * BS))
    fd = write_file(tb, "/f", payload(6 * BS))
    c = tb.clients[0]
    drive(tb, c.read(fd, 0, 6 * BS))
    hot = tb.cmcaches[0]._hot
    assert hot.used <= 3 * BS
    hot.check_invariants()
    assert tb.cmcaches[0].metrics.get("hot_evictions", 0) > 0


# --------------------------------------------------------------------------- #
# open-db refcounting (satellite)
# --------------------------------------------------------------------------- #
def test_open_db_nested_open_close_refcounting():
    tb = make()
    cm = tb.cmcaches[0]
    c = tb.clients[0]

    def w():
        fd1 = yield from c.create("/f")
        fd2 = yield from c.open("/f")
        assert cm.open_db["/f"] == 2
        yield from c.close(fd1)
        assert cm.open_db["/f"] == 1  # still open via fd2
        yield from c.close(fd2)
        assert "/f" not in cm.open_db

    drive(tb, w())


def test_open_db_close_below_zero_is_clamped():
    tb = make()
    cm = tb.cmcaches[0]
    cm._note_close("/never-opened")
    assert "/never-opened" not in cm.open_db
    cm._note_open("/f")
    cm._note_close("/f")
    cm._note_close("/f")  # double close must not go negative
    assert "/f" not in cm.open_db
    cm._note_open("/f")
    assert cm.open_db["/f"] == 1


def test_hot_cache_survives_inner_close_of_nested_open():
    tb = make(imca=IMCaConfig(hot_cache_bytes=256 * KiB))
    data = payload(2 * BS)
    fd1 = write_file(tb, "/f", data)
    c = tb.clients[0]

    def w():
        fd2 = yield from c.open("/f")
        yield from c.read(fd2, 0, 2 * BS)  # hot
        yield from c.close(fd1)  # refcount 2 -> 1: session still open
        assert len(tb.cmcaches[0]._hot) > 0
        yield from c.close(fd2)  # last close drops the session
        assert len(tb.cmcaches[0]._hot) == 0

    drive(tb, w())


# --------------------------------------------------------------------------- #
# write push ordering (satellite)
# --------------------------------------------------------------------------- #
def test_write_pushes_blocks_before_fresh_stat():
    """The ``:stat`` push must come after the block pushes: a poller
    that sees the new mtime may immediately trust short blocks against
    the new size, so the blocks must already be coherent."""
    tb = make()
    sm = tb.smcaches[0]
    pushed = []
    orig_set, orig_set_multi = sm.mc.set, sm.mc.set_multi

    def recording_set(key, value, **kw):
        pushed.append(key)
        return orig_set(key, value, **kw)

    def recording_set_multi(items):
        pushed.extend(item[0] for item in items)
        return orig_set_multi(items)

    sm.mc.set = recording_set
    sm.mc.set_multi = recording_set_multi
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        pushed.clear()
        yield from c.write(fd, 0, 3 * BS, payload(3 * BS))

    drive(tb, w())
    stat_positions = [i for i, k in enumerate(pushed) if k.endswith(":stat")]
    block_positions = [i for i, k in enumerate(pushed) if not k.endswith(":stat")]
    assert block_positions, "write read-back pushed no blocks"
    assert stat_positions, "write pushed no fresh stat"
    assert min(stat_positions) > max(block_positions)
