"""IMCa end-to-end behaviour: the CMCache/MCD/SMCache triangle."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.util import KiB, MiB


def make(num_clients=1, num_mcds=1, imca=None, **kw):
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


def test_stat_served_from_mcd_after_create():
    """§4.2: SMCache pushes the stat at open/create; the next stat hits."""
    tb = make()
    c = tb.clients[0]
    cm = tb.cmcaches[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.close(fd)
        st = yield from c.stat("/f")
        return st

    st = drive(tb, w())
    assert st.size == 0
    assert cm.metrics.get("stat_hits") == 1
    assert tb.server.stats.get("fop_stat", 0) == 0  # never reached server


def test_stat_hit_faster_than_nocache():
    def stat_time(num_mcds):
        tb = make(num_mcds=num_mcds) if num_mcds else build_gluster_testbed(
            TestbedConfig(num_clients=1)
        )
        c = tb.clients[0]

        def w():
            fd = yield from c.create("/f")
            yield from c.close(fd)
            t0 = tb.sim.now
            for _ in range(20):
                yield from c.stat("/f")
            return (tb.sim.now - t0) / 20

        return drive(tb, w())

    assert stat_time(1) < stat_time(0)


def test_read_hits_after_write():
    """Fig 4(c): the write's read-back populates the MCDs, so the read
    phase never touches the server."""
    tb = make()
    c = tb.clients[0]
    cm = tb.cmcaches[0]

    def w():
        fd = yield from c.create("/f")
        payload = bytes(range(256)) * 32  # 8 KiB
        yield from c.write(fd, 0, len(payload), payload)
        reads_at_server_before = tb.server.stats.get("fop_read", 0)
        r = yield from c.read(fd, 0, len(payload))
        return r, payload, tb.server.stats.get("fop_read", 0) - reads_at_server_before

    r, payload, server_reads = drive(tb, w())
    assert r.data == payload
    assert server_reads == 0
    assert cm.metrics.get("read_hits") == 1


def test_read_miss_forwards_and_populates():
    """A cold read misses, goes to the server, and the SMCache hook
    pushes the covering blocks so the next read hits."""
    tb = make()
    c = tb.clients[0]
    cm = tb.cmcaches[0]
    sm = tb.smcaches[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 8 * KiB)
        # Nuke the cache to force a cold read.
        for mcd in tb.mcds:
            mcd.engine.flush_all()
        r1 = yield from c.read(fd, 0, 4 * KiB)
        r2 = yield from c.read(fd, 0, 4 * KiB)
        return r1, r2

    r1, r2 = drive(tb, w())
    assert r1.size == r2.size == 4 * KiB
    assert cm.metrics.get("read_misses") == 1
    assert cm.metrics.get("read_hits") == 1
    assert r1.same_content(r2)


def test_over_limit_non_ascii_path_degrades_to_uncacheable():
    """§4.4 transparent degradation: a path whose keys exceed memcached's
    250 *bytes* is never cached — even when it is under 250 characters —
    and reads still return the right bytes from the server."""
    tb = make()
    c = tb.clients[0]
    cm = tb.cmcaches[0]
    path = "/" + "文" * 100  # 101 characters, 301 UTF-8 bytes
    payload = bytes(range(256)) * 16

    def w():
        fd = yield from c.create(path)
        yield from c.write(fd, 0, 4 * KiB, payload)
        st = yield from c.stat(path)
        r1 = yield from c.read(fd, 0, 4 * KiB)
        r2 = yield from c.read(fd, 1 * KiB, 2 * KiB)
        return st, r1, r2

    st, r1, r2 = drive(tb, w())
    assert st.size == 4 * KiB
    assert r1.data == payload and r2.data == payload[1 * KiB : 3 * KiB]
    assert cm.metrics.get("uncacheable") == 2
    assert cm.metrics.get("read_hits") == 0 and cm.metrics.get("stat_hits") == 0
    for mcd in tb.mcds:
        assert mcd.engine.curr_items == 0
        assert mcd.engine.stats.get("cmd_get") == 0 and mcd.engine.stats.get("cmd_set") == 0


def test_unaligned_read_extended_at_server():
    """Fig 4(a)/Fig 3: the server reads whole blocks and returns the
    requested slice."""
    tb = make(imca=IMCaConfig(block_size=2 * KiB))
    c = tb.clients[0]
    sm = tb.smcaches[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 8 * KiB)
        for mcd in tb.mcds:
            mcd.engine.flush_all()
        r = yield from c.read(fd, 300, 100)  # wildly unaligned
        return r

    r = drive(tb, w())
    assert r.size == 100
    assert r.offset == 300
    assert sm.metrics.get("read_extra_bytes") > 0


def test_one_byte_read_returns_one_byte():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB, b"Q" * 4 * KiB)
        r = yield from c.read(fd, 1234, 1)
        return r

    r = drive(tb, w())
    assert r.size == 1
    assert r.data == b"Q"


def test_read_after_write_coherency_sync_mode():
    """The §4.4 correctness invariant: in synchronous mode a read after
    a completed write always returns the new bytes."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB, b"a" * 4 * KiB)
        r1 = yield from c.read(fd, 0, 4 * KiB)
        yield from c.write(fd, 1 * KiB, 1 * KiB, b"b" * KiB)
        r2 = yield from c.read(fd, 0, 4 * KiB)
        return r1, r2

    r1, r2 = drive(tb, w())
    assert r1.data == b"a" * 4 * KiB
    assert r2.data == b"a" * KiB + b"b" * KiB + b"a" * 2 * KiB


def test_cross_client_read_write_sharing():
    """§5.6 scenario: one writer, other readers, one shared file."""
    tb = make(num_clients=3)
    writer, r1, r2 = tb.clients

    def w():
        fd = yield from writer.create("/shared")
        yield from writer.write(fd, 0, 16 * KiB, b"z" * 16 * KiB)
        fds = []
        for reader in (r1, r2):
            rfd = yield from reader.open("/shared")
            fds.append(rfd)
        out = []
        for reader, rfd in zip((r1, r2), fds):
            rr = yield from reader.read(rfd, 0, 16 * KiB)
            out.append(rr)
        return out

    out = drive(tb, w())
    assert all(r.data == b"z" * 16 * KiB for r in out)


def test_open_purges_stale_blocks():
    """§4.3.2: 'the MCDs are purged of any data relating to the file
    when the Open operation is received'."""
    tb = make()
    c = tb.clients[0]
    sm = tb.smcaches[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 8 * KiB)
        # Blocks cached now; a fresh open must purge them.
        fd2 = yield from c.open("/f")
        return None

    drive(tb, w())
    assert sm.metrics.get("purges") >= 1
    # Only the stat entries may remain.
    stats = tb.mcd_stats()
    from repro.core.keys import is_stat_key

    for mcd in tb.mcds:
        for key in mcd.engine._items:
            assert is_stat_key(key)


def test_close_discards_data_blocks():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB)
        yield from c.close(fd)

    drive(tb, w())
    from repro.core.keys import is_stat_key

    for mcd in tb.mcds:
        for key in mcd.engine._items:
            assert is_stat_key(key)


def test_unlink_purges_everything():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB)
        yield from c.unlink("/f")

    drive(tb, w())
    for mcd in tb.mcds:
        assert mcd.engine.curr_items == 0


def test_delete_then_recreate_no_false_positive():
    """§4.2: removing entries on delete avoids false positives."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 2 * KiB, b"1" * 2 * KiB)
        yield from c.unlink("/f")
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 2 * KiB, b"2" * 2 * KiB)
        r = yield from c.read(fd, 0, 2 * KiB)
        return r

    r = drive(tb, w())
    assert r.data == b"2" * 2 * KiB


def test_write_not_intercepted_at_client():
    """§4.3.2: CMCache does not intercept Write; every write reaches
    the server (persistence)."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        for i in range(10):
            yield from c.write(fd, i * KiB, KiB)

    drive(tb, w())
    assert tb.server.stats.get("fop_write") == 10
    # And the data really is on the server's local FS.
    assert tb.server.fs._files["/f"].stat.size == 10 * KiB
