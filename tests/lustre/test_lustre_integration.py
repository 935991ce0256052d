"""Integration tests for the Lustre baseline."""

import pytest

from repro.cluster import TestbedConfig, build_lustre_testbed
from repro.util import KiB, MiB, USEC


def make(num_clients=1, num_data_servers=1, **kw):
    return build_lustre_testbed(
        TestbedConfig(num_clients=num_clients, num_data_servers=num_data_servers, **kw)
    )


def drive(tb, gen):
    p = tb.sim.process(gen)
    tb.sim.run()
    return p.value


def test_create_write_read_roundtrip():
    tb = make()
    c = tb.clients[0]
    payload = bytes(range(256)) * 16

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, len(payload), payload)
        r = yield from c.read(fd, 0, len(payload))
        return r

    r = drive(tb, w())
    assert r.data == payload


def test_striping_places_objects_on_all_osts():
    tb = make(num_data_servers=4)
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/big")
        yield from c.write(fd, 0, 8 * MiB)

    drive(tb, w())
    for ost in tb.osts:
        obj = ost.object_path("/big")
        assert ost.fs.exists(obj)
        assert ost.fs._files[obj].stat.size == 2 * MiB


def test_stat_aggregates_striped_size():
    tb = make(num_data_servers=4)
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 6 * MiB)
        st = yield from c.stat("/f")
        return st

    st = drive(tb, w())
    assert st.size == 6 * MiB


def test_warm_reads_hit_client_cache():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 256 * KiB)
        yield from c.read(fd, 0, 256 * KiB)  # fills cache
        before = c.stats.get("cache_misses")
        t0 = tb.sim.now
        yield from c.read(fd, 0, 256 * KiB)
        return c.stats.get("cache_misses") - before, tb.sim.now - t0

    misses, warm_time = drive(tb, w())
    assert misses == 0
    assert warm_time < 150 * USEC  # no RPCs: local memory speed


def test_drop_caches_forces_cold_reads():
    """§5.3: unmount/remount evicts the client cache."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 128 * KiB)
        yield from c.read(fd, 0, 128 * KiB)
        yield from c.drop_caches()
        before = c.stats.get("cache_misses")
        yield from c.read(fd, 0, 128 * KiB)
        return c.stats.get("cache_misses") - before

    misses = drive(tb, w())
    assert misses >= 1
    assert c.stats.get("remounts") == 1


def test_cold_slower_than_warm():
    def timed(cold):
        tb = make()
        c = tb.clients[0]

        def w():
            fd = yield from c.create("/f")
            yield from c.write(fd, 0, 64 * KiB)
            yield from c.read(fd, 0, 64 * KiB)
            if cold:
                yield from c.drop_caches()
            t0 = tb.sim.now
            yield from c.read(fd, 0, 64 * KiB)
            return tb.sim.now - t0

        return drive(tb, w())

    assert timed(cold=True) > timed(cold=False) * 3


def test_write_invalidates_other_clients_cache():
    """Lock-based coherency (§1): a writer revokes readers' locks and
    their caches; the readers' next read refetches fresh data."""
    tb = make(num_clients=2)
    reader, writer = tb.clients

    def w():
        fd_w = yield from writer.create("/f")
        yield from writer.write(fd_w, 0, 4 * KiB, b"old!" * KiB)
        fd_r = yield from reader.open("/f")
        r1 = yield from reader.read(fd_r, 0, 4 * KiB)
        yield from writer.write(fd_w, 0, 4 * KiB, b"new!" * KiB)
        r2 = yield from reader.read(fd_r, 0, 4 * KiB)
        return r1, r2

    r1, r2 = drive(tb, w())
    assert r1.data == b"old!" * KiB
    assert r2.data == b"new!" * KiB
    assert reader.stats.get("lock_revoked") >= 1


def test_lock_pingpong_under_rw_sharing():
    tb = make(num_clients=2)
    a, b = tb.clients

    def w():
        fd_a = yield from a.create("/f")
        fd_b = yield from b.open("/f")
        for i in range(4):
            yield from a.write(fd_a, 0, KiB, bytes([i]) * KiB)
            yield from b.read(fd_b, 0, KiB)
        return None

    drive(tb, w())
    assert tb.mds.ldlm.stats.get("revocations") >= 6


def test_multiple_ds_spread_read_load():
    """4 DSs serve multiple cold streams in parallel (the §3 'parallel
    I/O bandwidth from multiple servers' effect); a single bounded-RA
    stream cannot exploit striping, but concurrent clients can."""

    from repro.sim import Barrier

    def cold_read_time(n_ds):
        tb = make(num_clients=4, num_data_servers=n_ds)
        sim = tb.sim
        barrier = Barrier(sim, len(tb.clients))
        marks = {}

        def w(client, idx):
            fd = yield from client.create(f"/f{idx}")
            yield from client.write(fd, 0, 4 * MiB)
            yield from client.drop_caches()
            yield barrier.wait()
            if idx == 0:
                marks["r0"] = sim.now
            yield from client.read(fd, 0, 4 * MiB)
            yield barrier.wait()
            if idx == 0:
                marks["r1"] = sim.now

        procs = [sim.process(w(c, i)) for i, c in enumerate(tb.clients)]
        sim.run(until=sim.all_of(procs))
        return marks["r1"] - marks["r0"]

    assert cold_read_time(4) < cold_read_time(1) * 0.7


def test_unlink_destroys_objects():
    tb = make(num_data_servers=2)
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 2 * MiB)
        yield from c.close(fd)
        yield from c.unlink("/f")

    drive(tb, w())
    for ost in tb.osts:
        assert not ost.fs.exists(ost.object_path("/f"))
