"""Coherence with R-way replication: no replica may ever serve stale data.

The §4.3.2 purge protocol (open purges, close discards, unlink removes
everything, writes push fresh stat + blocks) must hold per *replica*:
reads round-robin over all copies, so a single stale replica would
surface as wrong bytes some fraction of the time.
"""

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.core.keys import is_stat_key, stat_key
from repro.util import KiB


def make(num_clients=1, num_mcds=3, replicas=2, **kw):
    cfg = TestbedConfig(
        num_clients=num_clients,
        num_mcds=num_mcds,
        imca=IMCaConfig(replicas=replicas),
        **kw,
    )
    return build_gluster_testbed(cfg)


def drive(tb, gen):
    p = tb.sim.process(gen)
    tb.sim.run()
    return p.value


def test_stat_never_stale_on_any_replica():
    """A write updates the stat on *every* replica; round-robin reads
    must see the new size no matter which copy they land on."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB)
        sizes = []
        for _ in range(6):  # covers both replicas of the stat key
            st = yield from c.stat("/f")
            sizes.append(st.size)
        return sizes

    assert drive(tb, w()) == [4 * KiB] * 6


def test_overwritten_blocks_fresh_on_every_replica():
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB, b"a" * 4 * KiB)
        yield from c.read(fd, 0, 4 * KiB)  # warm both replica sets
        yield from c.write(fd, 0, 4 * KiB, b"b" * 4 * KiB)
        out = []
        for _ in range(6):
            r = yield from c.read(fd, 0, 4 * KiB)
            out.append(r.data)
        return out

    assert drive(tb, w()) == [b"b" * 4 * KiB] * 6


def test_unlink_purges_every_replica_engine():
    """Unlink purges the blocks and the ``:stat`` key from every copy:
    both owners held the stat before, and neither holds it after."""
    tb = make()
    c = tb.clients[0]
    mc = tb.smcaches[0].mc
    key = stat_key("/f")
    holders = []

    def held():
        return [i for i in mc.owners(key) if key in mc.membership.daemon(i).engine._items]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 8 * KiB)
        holders.append(held())
        yield from c.unlink("/f")
        holders.append(held())

    drive(tb, w())
    assert len(mc.owners(key)) == 2
    assert holders == [mc.owners(key), []]
    for mcd in tb.mcds:
        assert mcd.engine.curr_items == 0


def test_open_purge_reaches_all_replicas():
    """§4.3.2: open purges the file's data blocks — from every copy."""
    tb = make()
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 8 * KiB)
        yield from c.open("/f")

    drive(tb, w())
    for mcd in tb.mcds:
        for key in mcd.engine._items:
            assert is_stat_key(key)


def test_cross_client_sharing_with_replication():
    tb = make(num_clients=3)
    writer, r1, r2 = tb.clients

    def w():
        fd = yield from writer.create("/shared")
        yield from writer.write(fd, 0, 16 * KiB, b"z" * 16 * KiB)
        out = []
        for reader in (r1, r2):
            rfd = yield from reader.open("/shared")
            for _ in range(2):  # hit both replicas per reader
                rr = yield from reader.read(rfd, 0, 16 * KiB)
                out.append(rr.data)
        return out

    assert drive(tb, w()) == [b"z" * 16 * KiB] * 4
