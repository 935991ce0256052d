"""One key table and one owner table per testbed.

A cache entry's name (``abspath:stat``, ``abspath:<block offset>``) and
its owning MCD are pure functions of the path, the block size and the
ring, so a testbed builds the key table once for every CMCache and
SMCache, and one selector whose owner memo the membership keeps per
epoch for every ``MemcacheClient``.  A translator or client built on
its own gets private tables from the same code.
"""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.cmcache import CMCacheXlator
from repro.core.config import IMCaConfig
from repro.core.keys import KeyCache, data_key, key_table, stat_key
from repro.core.smcache import SMCacheXlator
from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached.hashing import KetamaSelector
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import KiB, MiB

FILE = 8 * KiB


def make(num_clients=4, selector="crc32", num_mcds=3):
    return build_gluster_testbed(
        TestbedConfig(
            num_clients=num_clients, num_mcds=num_mcds,
            imca=IMCaConfig(selector=selector),
        )
    )


def every_mc(tb):
    return [x.mc for x in tb.cmcaches + tb.smcaches]


def run(tb, *gens):
    for g in gens:
        tb.sim.process(g)
    tb.sim.run()


def paths(n):
    return [f"/shared/d{i % 4}/f{i:03d}" for i in range(n)]


def create(tb, files):
    c = tb.clients[0]

    def body():
        for i, p in enumerate(files):
            fd = yield from c.create(p)
            yield from c.write(fd, 0, FILE, bytes([i % 256]) * FILE)
            yield from c.close(fd)

    run(tb, body())


def stat_and_read(client, files, out):
    """Stat every file, then read it whole; records what came back."""
    for p in files:
        st = yield from client.stat(p)
        fd = yield from client.open(p)
        r = yield from client.read(fd, 0, FILE)
        yield from client.close(fd)
        out.append((p, st.size, r.data))


def table_sizes(tb):
    """Entries held across every distinct key table and owner table."""
    keys = {id(x._keys): x._keys for x in tb.cmcaches + tb.smcaches}.values()
    owners = {id(mc._primaries): mc._primaries for mc in every_mc(tb)}.values()
    return (
        sum(len(k._stat) for k in keys),
        sum(len(k._blocks) for k in keys),
        sum(len(b) for k in keys for b in k._blocks.values()),
        sum(map(len, owners)),
    )


def test_every_translator_and_client_of_a_testbed_shares_one_table_each():
    tb = make()
    files = paths(16)
    create(tb, files)
    run(tb, *(stat_and_read(c, files, []) for c in tb.clients))
    keys = tb.cmcaches[0]._keys
    assert all(x._keys is keys for x in tb.cmcaches + tb.smcaches)
    mcs = every_mc(tb)
    assert len(mcs) == 5
    sel = mcs[0].selector
    assert all(mc.selector is sel for mc in mcs)
    assert all(mc.membership is tb.membership for mc in mcs)
    table = tb.membership.owner_table(sel)
    assert table  # routing filled it
    for mc in mcs:
        mc._read_memo()  # resync to the current epoch
        assert mc._primaries is table


def test_table_sizes_do_not_grow_with_the_client_count():
    """The same 64-file stat-and-read sequence, run by every client,
    leaves the shared tables the same size with 1 client and 16."""
    files = paths(64)
    sizes, results = [], []
    for n in (1, 16):
        tb = make(num_clients=n)
        create(tb, files)
        outs = [[] for _ in range(n)]
        run(tb, *(stat_and_read(c, files, o) for c, o in zip(tb.clients, outs)))
        sizes.append(table_sizes(tb))
        results.append(outs)
    assert sizes[0] == sizes[1]
    assert sizes[0][0] == 64 and sizes[0][1] == 64 and sizes[0][3] > 0
    # And every client read the right bytes.
    want = [(p, FILE, bytes([i % 256]) * FILE) for i, p in enumerate(files)]
    assert all(o == want for outs in results for o in outs)


def test_a_translator_or_client_built_alone_gets_private_tables():
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [MemcachedDaemon(sim, net, Node(sim, f"m{i}"), MiB) for i in range(2)]

    def client(name):
        return MemcacheClient(Endpoint(net, Node(sim, name)), daemons)

    a, b = client("a"), client("b")
    assert a.membership is not b.membership
    assert a._primaries is not b._primaries
    a.owners("/x:stat")
    assert "/x:stat" in a._primaries and "/x:stat" not in b._primaries

    cms = [CMCacheXlator(a), CMCacheXlator(b)]
    sms = [SMCacheXlator(sim, a), SMCacheXlator(sim, b)]
    tables = {id(x._keys) for x in cms + sms}
    assert len(tables) == 4
    assert all(isinstance(x._keys, KeyCache) for x in cms + sms)
    # Outside a testbed the table still indexes the translator's blocks.
    assert CMCacheXlator(a, IMCaConfig(block_size=8 * KiB))._keys.block_size == 8 * KiB


def test_a_shared_key_table_must_index_the_translators_block_size():
    keys = KeyCache(block_size=2 * KiB)
    assert key_table(keys, 2 * KiB) is keys
    with pytest.raises(ValueError):
        key_table(keys, 8 * KiB)


def _pick(selector, key, ring):
    if isinstance(selector, KetamaSelector):
        return selector.owner(key, ring)
    return ring[selector.select(key, len(ring))]


@pytest.mark.parametrize("selector", ["crc32", "modulo", "ketama"])
def test_every_shared_entry_is_the_pure_function(selector):
    tb = make(selector=selector)
    files = paths(24)
    create(tb, files)
    run(tb, *(stat_and_read(c, files, []) for c in tb.clients))
    keys = tb.cmcaches[0]._keys
    bs = keys.block_size
    assert keys._stat and keys._blocks
    for path, key in keys._stat.items():
        assert key == stat_key(path)
    for path, blocks in keys._blocks.items():
        assert blocks == [data_key(path, i * bs) for i in range(len(blocks))]
        # A purge or fill reads the very strings a read sliced.
        assert all(keys.data_key(path, i * bs) is key for i, key in enumerate(blocks))
    sel = tb.cmcaches[0].mc.selector
    ring = tb.membership.ring_ids
    table = tb.membership.owner_table(sel)
    assert table
    for key, owner in table.items():
        assert owner == _pick(sel, key, ring), key
