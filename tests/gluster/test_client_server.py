"""Integration tests: GlusterFS client/server over the network
(the paper's NoCache configuration)."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.gluster.client import BadFd
from repro.localfs.fs import FsError
from repro.util import KiB, MSEC, USEC


def drive(tb, gen):
    p = tb.sim.process(gen)
    tb.sim.run()
    return p.value


def make(num_clients=1, **kw):
    return build_gluster_testbed(TestbedConfig(num_clients=num_clients, **kw))


def test_create_write_read_roundtrip():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/data/file0")
        yield from c.write(fd, 0, 6, b"hello!")
        r = yield from c.read(fd, 0, 6)
        yield from c.close(fd)
        return r

    r = drive(tb, w())
    assert r.data == b"hello!"
    assert r.size == 6


def test_stat_reflects_writes():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 1000)
        st = yield from c.stat("/f")
        return st

    st = drive(tb, w())
    assert st.size == 1000


def test_open_missing_file_raises():
    tb = make()
    c = tb.clients[0]

    def w():
        yield from c.open("/nope")

    with pytest.raises(FsError, match="ENOENT"):
        drive(tb, w())


def test_bad_fd_raises():
    tb = make()
    c = tb.clients[0]

    def w():
        yield from c.read(99, 0, 10)

    with pytest.raises(BadFd):
        drive(tb, w())


def test_unlink_removes_file():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.close(fd)
        yield from c.unlink("/f")
        yield from c.stat("/f")

    with pytest.raises(FsError, match="ENOENT"):
        drive(tb, w())


def test_two_clients_share_one_namespace():
    tb = make(num_clients=2)
    a, b = tb.clients

    def w():
        fd = yield from a.create("/shared")
        yield from a.write(fd, 0, 4, b"abcd")
        fd_b = yield from b.open("/shared")
        r = yield from b.read(fd_b, 0, 4)
        return r

    r = drive(tb, w())
    assert r.data == b"abcd"


def test_single_op_latency_magnitude():
    """A small NoCache read should land in the 100us-1ms range (IPoIB
    RTT + FUSE + server CPU), far from disk-bound and far from zero."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 2 * KiB)
        t0 = tb.sim.now
        yield from c.read(fd, 0, 2 * KiB)
        return tb.sim.now - t0

    lat = drive(tb, w())
    assert 80 * USEC < lat < 1 * MSEC


def test_server_contention_grows_with_clients():
    """NoCache stat latency must degrade as clients multiply — the §3
    server-load problem IMCa attacks."""

    def total_time(n):
        tb = make(num_clients=n)
        sim = tb.sim

        def setup():
            fd = yield from tb.clients[0].create("/f")
            yield from tb.clients[0].close(fd)

        drive(tb, setup())
        t0 = sim.now
        procs = []

        def stats(client):
            for _ in range(30):
                yield from client.stat("/f")

        for cl in tb.clients:
            procs.append(sim.process(stats(cl)))
        sim.run()
        return sim.now - t0

    # Per-client demand is ~1 op / 140us; two io-threads saturate near
    # 90k op/s, i.e. somewhere above 12 clients — 32 queue heavily.
    t1, t32 = total_time(1), total_time(32)
    assert t32 > t1 * 2


def test_write_data_optional():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        v1 = yield from c.write(fd, 0, 10)  # no literal data
        v2 = yield from c.write(fd, 10, 10)
        r = yield from c.read(fd, 0, 20)
        return v1, v2, r

    v1, v2, r = drive(tb, w())
    assert v2 > v1
    assert r.size == 20
    assert [iv[2] for iv in r.intervals] == [v1, v2]
