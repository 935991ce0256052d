"""Counters an op books are plain int attributes, folded into their
:class:`~repro.util.stats.Counter` only when it is read (DESIGN §7,
"Counters are read only when asked").  Every reader must see what
eager counting showed: the same keys, zero-valued ones included, in the
same order, with the same values.

A 2-client, 2-MCD testbed runs a fixed sequence — a stat hit and a stat
miss, a cold and a warm read, a write and a close, singleflight
followers on one client, one MCD killed partway and the ops after it —
and every counter reader is compared, key order included, with the
dicts eager counting produced for the same sequence, pinned in
:data:`PINNED`: the client, cache, MCD, slab, brick, file-system,
page-cache and disk counters.  A second run reads every counter after
every op (folding each time) and must end where the first did.
"""

from repro import Observability, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.localfs.fs import FsError
from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util.units import KiB, MiB


def _run(read_between=False):
    """Run the sequence; the readers' dicts at the end."""
    obs = Observability()
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=2, num_mcds=2, mcd_memory=8 * MiB, imca=IMCaConfig()),
        obs=obs,
    )
    sim = tb.sim
    c0, c1 = tb.clients
    sm_mc = tb.smcaches[0].mc
    mcs = [*(cm.mc for cm in tb.cmcaches), sm_mc]
    endpoints = [
        *tb.client_endpoints, sm_mc.endpoint, tb.server.endpoint, *(m.endpoint for m in tb.mcds)
    ]

    def readers():
        fs = tb.server.fs
        return {
            "net": tb.net.stats.as_dict(),
            "endpoints": [ep.stats.as_dict() for ep in endpoints],
            "mcd": tb.mcd_stats(),
            "engines": [m.engine.stat_dict() for m in tb.mcds],
            "cm": tb.cm_stats(),
            "sm": tb.sm_stats(),
            "mcclient": tb.mcclient_stats(),
            "mcs": [mc.stats.as_dict() for mc in mcs],
            "clients": [c.stats.as_dict() for c in tb.clients],
            "registry": tb.snapshot_metrics().snapshot(),
            "slabs": [m.engine.slabs.stats.as_dict() for m in tb.mcds],
            "server": tb.server.stats.as_dict(),
            "fs": fs.stats.as_dict(),
            "meta": fs.meta_cache.stats.as_dict(),
            "pages": fs.page_cache.stats.as_dict(),
            "raid": fs.device.stats.as_dict(),
            "disks": [d.stats.as_dict() for d in fs.device.members],
        }

    def step(gen):
        sim.process(gen)
        sim.run()
        if read_between:
            readers()

    def write_close(path, size):
        fd = yield from c0.create(path)
        yield from c0.write(fd, 0, size)
        yield from c0.close(fd)

    def stat_missing(client, path):
        try:
            yield from client.stat(path)
        except FsError:
            pass

    def reads(client, path, offset, size, times):
        fd = yield from client.open(path)
        for _ in range(times):
            yield from client.read(fd, offset, size)
        yield from client.close(fd)

    step(write_close("/a", 64 * KiB))
    step(write_close("/b", 8 * KiB))
    step(c0.stat("/a"))  # a stat hit
    step(stat_missing(c1, "/missing"))  # a stat miss
    step(reads(c0, "/a", 16 * KiB, 16 * KiB, 2))  # a cold read, then a warm one
    step(reads(c1, "/b", 0, 4 * KiB, 1))
    # Singleflight followers: concurrent stats and reads on one client.
    fd = []

    def open_a():
        fd.append((yield from c1.open("/a")))

    step(open_a())
    for _ in range(3):
        sim.process(c1.stat("/a"))
        sim.process(c1.read(fd[0], 0, 8 * KiB))
    sim.run()
    if read_between:
        readers()
    # One MCD killed partway: its keys miss with errors from now on.
    tb.mcds[1].kill()
    step(c0.stat("/a"))
    step(c0.stat("/b"))
    step(reads(c0, "/a", 0, 32 * KiB, 2))
    step(c1.close(fd[0]))
    step(write_close("/c", 4 * KiB))
    return readers()


def test_a_get_multi_books_both_counts_a_zero_included():
    """A ``get_multi`` puts ``hits`` and ``misses`` in even when one is
    0 (an empty batch: both), as ``inc(name, 0)`` did; a ``get`` books
    only the one it moved; and a new key keeps its place in line."""
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [MemcachedDaemon(sim, net, Node(sim, "mcd"), 4 * MiB)]

    def client(name):
        return MemcacheClient(Endpoint(net, Node(sim, name)), daemons)

    def run(gen):
        sim.process(gen)
        sim.run()

    a, b, c = client("a"), client("b"), client("c")
    run(a.set("k", b"v", 1))
    run(a.get_multi(["k"]))
    assert a.stats.as_dict() == {"sets": 1, "hits": 1, "misses": 0}
    run(b.get_multi([]))
    assert b.stats.as_dict() == {"hits": 0, "misses": 0}
    run(c.get("k"))
    assert c.stats.as_dict() == {"hits": 1}
    run(c.get("absent"))
    assert c.stats.as_dict() == {"hits": 1, "misses": 1}
    assert daemons[0].engine.stat_dict()["cmd_get"] == 3
    # A key booked with ``inc`` after tallies moved goes in after them,
    # as it did when every count was an ``inc``.
    d = client("d")
    run(d.get_multi(["k"]))
    daemons[0].kill()
    run(d.get_multi(["k"]))
    assert list(d.stats.as_dict().items()) == [("hits", 1), ("misses", 1), ("errors", 1)]


def _ordered(x):
    """*x* with every dict as its list of items: equal only in key order too."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [_ordered(v) for v in x]
    return x


def test_every_counter_reader_sees_what_eager_counting_showed():
    assert _ordered(_run()) == _ordered(PINNED)


def test_reading_between_ops_folds_to_the_same_counts():
    got = _run(read_between=True)
    assert got == PINNED
    # The registry's copied-in components take their key order from the
    # first snapshot, which this run takes after the first op.
    del got["registry"]
    assert _ordered(got) == _ordered({k: v for k, v in PINNED.items() if k != "registry"})


def test_a_push_and_a_purge_book_what_eager_counting_booked_zeros_included():
    """A ``delete_multi`` books ``deletes`` even at 0, the engine books
    ``curr_items`` when a batch links or unlinks even if the two cancel,
    and a batch that only refuses books ``cmd_set`` alone: key for key,
    in the order ``Counter.inc`` put them in."""
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemon = MemcachedDaemon(sim, net, Node(sim, "mcd"), 4 * MiB)
    mc = MemcacheClient(Endpoint(net, Node(sim, "c")), [daemon])
    engine = daemon.engine

    def run(gen):
        sim.process(gen)
        sim.run()
        return [
            list(counter.as_dict().items())
            for counter in (mc.stats, engine.stats, engine.slabs.stats)
        ]

    # Refused as too large, but answered: one ``sets``, no item linked.
    assert run(mc.set_multi([("big", None, 2 * MiB, 0, 0)])) == [
        [("sets", 1)], [("cmd_set", 1)], [],
    ]
    assert run(mc.delete_multi(["absent"])) == [
        [("sets", 1), ("deletes", 0)], [("cmd_set", 1), ("cmd_delete", 1)], [],
    ]
    assert run(mc.set_multi([("k", None, 100, 0, 0)])) == [
        [("sets", 2), ("deletes", 0)],
        [("cmd_set", 2), ("cmd_delete", 1), ("curr_items", 1), ("total_items", 1),
         ("bytes", 100)],
        [("pages_allocated", 1)],
    ]
    # A same-class overwrite: one linked, one unlinked, a delta of 0.
    assert run(mc.set_multi([("k", None, 100, 0, 0)])) == [
        [("sets", 3), ("deletes", 0)],
        [("cmd_set", 3), ("cmd_delete", 1), ("curr_items", 1), ("total_items", 2),
         ("bytes", 100)],
        [("pages_allocated", 1)],
    ]
    assert run(mc.delete_multi(["k", "absent"])) == [
        [("sets", 3), ("deletes", 1)],
        [("cmd_set", 3), ("cmd_delete", 3), ("curr_items", 0), ("total_items", 2),
         ("bytes", 0)],
        [("pages_allocated", 1)],
    ]


#: What every reader returned when each count was a ``Counter.inc``.
PINNED = {'net': {'messages': 155, 'bytes': 397693, 'undeliverable': 8},
 'endpoints': [{'calls': 27, 'errors': 2},
               {'calls': 15},
               {'calls': 44, 'errors': 6},
               {},
               {},
               {}],
 'mcd': {'cmd_set': 83,
         'curr_items': 5,
         'total_items': 83,
         'bytes': 4528,
         'cmd_delete': 56,
         'cmd_get': 46,
         'get_hits': 24,
         'get_misses': 22,
         'evictions': 0,
         'bytes_allocated': 3145728,
         'limit_maxbytes': 16777216},
 'engines': [{'cmd_set': 53,
              'curr_items': 3,
              'total_items': 53,
              'bytes': 432,
              'cmd_delete': 32,
              'cmd_get': 32,
              'get_hits': 19,
              'get_misses': 13,
              'evictions': 0,
              'bytes_allocated': 2097152,
              'limit_maxbytes': 8388608},
             {'cmd_set': 30,
              'curr_items': 2,
              'total_items': 30,
              'bytes': 4096,
              'cmd_delete': 24,
              'cmd_get': 14,
              'get_misses': 9,
              'get_hits': 5,
              'evictions': 0,
              'bytes_allocated': 1048576,
              'limit_maxbytes': 8388608}],
 'cm': {'stat_hits': 6,
        'blocks_requested': 62,
        'read_misses': 7,
        'read_hits': 1,
        'stat_misses': 1,
        'fastpath_stat_follows': 2},
 'sm': {'stat_pushes': 10,
        'write_readbacks': 3,
        'block_pushes': 92,
        'purges': 7,
        'purged_blocks': 68,
        'read_extra_bytes': 0},
 'mcclient': {'hits': 27,
              'misses': 48,
              'errors': 8,
              'sf_follows': 11,
              'sets': 83,
              'deletes': 56},
 'mcs': [{'hits': 22, 'misses': 33, 'errors': 2},
         {'misses': 15, 'hits': 5, 'sf_follows': 11},
         {'sets': 83, 'deletes': 56, 'errors': 6}],
 'clients': [{'creates': 3, 'writes': 3, 'closes': 5, 'stats': 3, 'opens': 2, 'reads': 4},
             {'stats': 4, 'opens': 2, 'reads': 4, 'closes': 2}],
 'registry': {'cmcache.client0': {'counters': {'stat_hits': 3,
                                               'blocks_requested': 48,
                                               'read_misses': 3,
                                               'read_hits': 1}},
              'cmcache.client1': {'counters': {'stat_misses': 1,
                                               'blocks_requested': 14,
                                               'read_misses': 4,
                                               'fastpath_stat_follows': 2,
                                               'stat_hits': 3}},
              'mcclient': {'counters': {'hits': 27,
                                        'misses': 48,
                                        'errors': 8,
                                        'sf_follows': 11,
                                        'sets': 83,
                                        'deletes': 56}},
              'mcd': {'counters': {'cmd_set': 83,
                                   'curr_items': 5,
                                   'total_items': 83,
                                   'bytes': 4528,
                                   'cmd_delete': 56,
                                   'cmd_get': 46,
                                   'get_hits': 24,
                                   'get_misses': 22,
                                   'evictions': 0,
                                   'bytes_allocated': 3145728,
                                   'limit_maxbytes': 16777216}},
              'net': {'counters': {'messages': 155, 'bytes': 397693, 'undeliverable': 8}},
              'smcache.gfs-server': {'counters': {'stat_pushes': 10,
                                                  'write_readbacks': 3,
                                                  'block_pushes': 92,
                                                  'purges': 7,
                                                  'purged_blocks': 68,
                                                  'read_extra_bytes': 0}}},
 'slabs': [{'pages_allocated': 2}, {'pages_allocated': 1}],
 'server': {'fop_create': 3,
            'fop_write': 3,
            'fop_flush': 7,
            'fop_stat': 1,
            'fop_open': 4,
            'fop_read': 7},
 'fs': {'creates': 3, 'writes': 3, 'reads': 10, 'stats': 4, 'meta_hits': 7},
 'meta': {'hits': 7},
 'pages': {'evictions': 0, 'page_hits': 46},
 'raid': {'writes': 6, 'bytes': 90112},
 'disks': [{'writes': 6, 'bytes': 90112, 'seeks': 6}, {}, {}, {}, {}, {}, {}, {}]}
