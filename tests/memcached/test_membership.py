"""Elastic MCD membership: lifecycle, forwarding windows, controller."""

import pytest

from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached.hashing import KetamaSelector, selector as make_selector
from repro.memcached.membership import (
    DETACHED,
    DRAINING,
    ElasticController,
    ForwardingWindow,
    LIVE,
    McdMembership,
    WARMING,
)
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import MiB


def make_elastic(n=3, selector_name="ketama", mem=16 * MiB):
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), mem) for i in range(n)
    ]
    membership = McdMembership(daemons)

    def factory(nid):
        return MemcachedDaemon(sim, net, Node(sim, f"mcd{nid}"), mem)

    ctrl = ElasticController(
        sim,
        membership,
        net,
        node_factory=factory,
        selector_name=selector_name,
        migrate_interval=1e-6,
    )
    sel = KetamaSelector() if selector_name == "ketama" else None
    client = MemcacheClient(
        Endpoint(net, Node(sim, "client")),
        daemons,
        sel,
        membership=membership,
    )
    return sim, net, membership, ctrl, client


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


# --------------------------------------------------------------------------- #
# McdMembership views and lifecycle
# --------------------------------------------------------------------------- #
def test_initial_members_are_live():
    _, _, ms, _, _ = make_elastic(3)
    assert ms.ring_ids == (0, 1, 2)
    assert ms.reachable_ids() == (0, 1, 2)
    assert all(ms.members[i].state == LIVE for i in range(3))


def test_warming_nodes_join_the_ring_detached_leave_everything():
    sim, net, ms, _, _ = make_elastic(2)
    nid = ms.alloc_id()
    assert nid == 2
    d = MemcachedDaemon(sim, net, Node(sim, "mcd2"), 4 * MiB)
    ms.attach(nid, d, state=WARMING)
    assert ms.ring_ids == (0, 1, 2)
    ms.set_state(1, DRAINING)
    assert ms.ring_ids == (0, 2)  # draining: out of the key ring...
    assert 1 in ms.reachable_ids()  # ...but still a forwarding source
    ms.set_state(1, DETACHED)
    assert ms.reachable_ids() == (0, 2)
    assert not ms.reachable(1)


def test_epoch_bumps_only_on_visible_changes():
    _, _, ms, _, _ = make_elastic(2)
    e0 = ms.epoch
    ms.set_state(0, LIVE)  # no-op transition
    assert ms.epoch == e0
    ms.set_state(0, DRAINING)
    assert ms.epoch > e0


def test_forwarding_window_activity():
    w = ForwardingWindow("add", 2, (0, 1), until=5.0)
    assert w.active(4.999)
    assert not w.active(5.0)


def test_forward_source_add_and_drain():
    _, _, ms, _, _ = make_elastic(3)
    sel = KetamaSelector()
    # add: new node 3 joins; keys it now owns forward to their old owner.
    nid = ms.alloc_id()
    d = ms.members[0].daemon  # daemon handle is irrelevant here
    ms.attach(nid, d, state=WARMING)
    ms.open_window("add", nid, ring_before=(0, 1, 2), until=1.0)
    moved = [k for k in (f"k{i}" for i in range(400))
             if sel.owner(k, (0, 1, 2, 3)) == nid]
    assert moved
    for k in moved:
        src = ms.forward_source(k, nid, sel, now=0.5)
        assert src == sel.owner(k, (0, 1, 2))
        assert ms.forward_source(k, nid, sel, now=1.5) is None  # expired
    # unmoved keys never forward
    kept = next(k for k in (f"k{i}" for i in range(400))
                if sel.owner(k, (0, 1, 2, 3)) != nid)
    assert ms.forward_source(kept, sel.owner(kept, (0, 1, 2, 3)), sel, 0.5) is None


def test_window_peers_cover_write_fanout():
    _, _, ms, _, _ = make_elastic(3)
    sel = KetamaSelector()
    nid = ms.alloc_id()
    ms.attach(nid, ms.members[0].daemon, state=WARMING)
    ms.open_window("add", nid, ring_before=(0, 1, 2), until=1.0)
    moved = next(k for k in (f"k{i}" for i in range(400))
                 if sel.owner(k, (0, 1, 2, 3)) == nid)
    peers = ms.window_peers(moved, nid, sel, now=0.5)
    assert peers == [sel.owner(moved, (0, 1, 2))]
    assert ms.window_peers(moved, nid, sel, now=2.0) == []


# --------------------------------------------------------------------------- #
# ElasticController end to end
# --------------------------------------------------------------------------- #
def test_add_warms_then_goes_live():
    sim, _, ms, ctrl, _ = make_elastic(2)
    nid = ctrl.add(window=0.01)
    assert ms.members[nid].state == WARMING
    assert nid in ms.ring_ids
    assert any(w.active(sim.now) for w in ms.windows)
    sim.run()
    assert ms.members[nid].state == LIVE
    assert not any(w.active(sim.now) for w in ms.windows)


def test_drain_leaves_ring_immediately_then_detaches():
    sim, _, ms, ctrl, _ = make_elastic(3)
    ctrl.drain(2, window=0.01)
    assert ms.members[2].state == DRAINING
    assert ms.ring_ids == (0, 1)
    assert ms.reachable(2)  # still a forwarding source
    sim.run()
    assert ms.members[2].state == DETACHED
    assert not ms.members[2].daemon.alive


def test_remove_is_instant_and_crash_like():
    sim, _, ms, ctrl, _ = make_elastic(3)
    ctrl.remove(1)
    assert ms.members[1].state == DETACHED
    assert not ms.members[1].daemon.alive
    assert ms.ring_ids == (0, 2)
    assert not any(w.active(sim.now) for w in ms.windows)  # unplanned: no window, no warmth


def test_membership_guards():
    sim, _, ms, ctrl, _ = make_elastic(2)
    with pytest.raises(ValueError):
        ctrl.drain(7, window=0.01)  # unknown node
    ctrl.remove(1)
    with pytest.raises(ValueError):
        ctrl.remove(1)  # already detached
    with pytest.raises(ValueError):
        ctrl.remove(0)  # cannot empty the ring
    with pytest.raises(ValueError):
        ctrl.drain(0, window=0.01)  # ditto


def test_naive_selector_skips_windows():
    sim, _, ms, ctrl, _ = make_elastic(2, selector_name="crc32")
    nid = ctrl.add(window=0.01)
    # Without the ring there is no "old owner of this key" to forward
    # to: the node goes straight to live and no window opens.
    assert ms.members[nid].state == LIVE
    assert not any(w.active(sim.now) for w in ms.windows)


def _fill(client, keys):
    for k in keys:
        ok = yield from client.set(k, f"v-{k}".encode(), 8)
        assert ok


def test_backfill_serves_remapped_keys_during_window():
    sim, _, ms, ctrl, client = make_elastic(3)
    sel = client._ketama
    keys = [f"key{i}" for i in range(60)]

    def body():
        yield from _fill(client, keys)
        nid = ctrl.add(window=0.05)
        moved = [k for k in keys if sel.owner(k, ms.ring_ids) == nid]
        assert moved
        for k in moved:
            v = yield from client.get(k)
            assert v is not None and v.value == f"v-{k}".encode()
        return moved

    moved = drive(sim, body())
    assert client.stats.get("forward_probes") >= len(moved)
    assert client.stats.get("backfill_hits") >= len(moved)
    assert client.stats.get("misses", 0) == 0


def test_window_close_enforces_single_owner():
    """After the window closes, a moved key's value lives only on its
    current owner: the old copy is purged by the cleanup scan."""
    sim, _, ms, ctrl, client = make_elastic(3)
    sel = client._ketama
    keys = [f"key{i}" for i in range(60)]
    out = {}

    def body():
        yield from _fill(client, keys)
        ring_before = ms.ring_ids
        nid = ctrl.add(window=0.01)
        out["nid"] = nid
        out["old"] = {
            k: sel.owner(k, ring_before)
            for k in keys
            if sel.owner(k, ms.ring_ids) == nid
        }
        # touch every moved key so backfill copies it to the new owner
        for k in out["old"]:
            yield from client.get(k)

    drive(sim, body())
    nid = out["nid"]
    assert out["old"]
    for k, old in out["old"].items():
        assert ms.members[nid].daemon.engine.get(k) is not None
        assert ms.members[old].daemon.engine.get(k) is None  # cleaned up


def test_window_writes_fan_out_and_stay_coherent():
    sim, _, ms, ctrl, client = make_elastic(3)
    sel = client._ketama
    keys = [f"key{i}" for i in range(80)]

    def body():
        yield from _fill(client, keys)
        nid = ctrl.add(window=0.05)
        moved = [k for k in keys if sel.owner(k, ms.ring_ids) == nid]
        assert moved
        k = moved[0]
        ok = yield from client.set(k, b"fresh", 5)
        assert ok
        # a forwarded read must see the new value, not the stale copy
        v = yield from client.get(k)
        assert v.value == b"fresh"
        removed = yield from client.delete_multi([k])
        assert removed == 1
        v = yield from client.get(k)
        assert v is None
        return moved[0]

    drive(sim, body())
    assert client.stats.get("window_writes", 0) > 0


def test_background_migration_moves_keys_off_critical_path():
    sim, _, ms, ctrl, client = make_elastic(3)
    keys = [f"key{i}" for i in range(80)]

    def body():
        yield from _fill(client, keys)
        nid = ctrl.add(window=0.05, migrate=True)
        return nid

    nid = drive(sim, body())
    moved = [k for k in keys if client._ketama.owner(k, ms.ring_ids) == nid]
    assert moved
    eng = ms.members[nid].daemon.engine
    assert all(eng.get(k) is not None for k in moved)
    # sources no longer hold the moved keys (delete-after-copy)
    for k in moved:
        for i in (0, 1, 2):
            assert ms.members[i].daemon.engine.get(k) is None


def test_drain_with_migration_preserves_all_values():
    sim, _, ms, ctrl, client = make_elastic(3)
    keys = [f"key{i}" for i in range(80)]

    def body():
        yield from _fill(client, keys)
        ctrl.drain(2, window=0.02, migrate=True)
        yield sim.timeout(0.05)
        for k in keys:
            v = yield from client.get(k)
            assert v is not None, k

    drive(sim, body())
    assert client.stats.get("misses", 0) == 0
    assert ms.members[2].state == DETACHED


def test_client_static_path_identical_with_idle_membership():
    """An elastic client with no membership events selects exactly like
    a legacy client: the ring over ids [0..n) is the positional ring."""
    sim, _, ms, ctrl, client = make_elastic(3)
    legacy = MemcacheClient(
        client.endpoint, client.servers, KetamaSelector()
    )
    for i in range(300):
        k = f"somekey{i}"
        assert client.membership.daemon(client.owners(k)[0]) is (
            legacy.membership.daemon(legacy.owners(k)[0])
        )


def _fresh_pick(client, key):
    """*key*'s primary computed from scratch over the current ring."""
    ring = client.membership.ring_ids
    if isinstance(client.selector, KetamaSelector):
        return KetamaSelector().owner(key, ring)
    return ring[client.selector.select(key, len(ring))]


@pytest.mark.parametrize(
    "selector_name, change",
    [
        ("ketama", "add"), ("ketama", "drain"), ("ketama", "remove"),
        ("crc32", "add_server"), ("modulo", "add_server"), ("crc32", "remove"),
    ],
)
def test_a_resize_never_routes_by_a_stale_memoised_owner(selector_name, change):
    """Every key's owner is memoised per membership epoch, in one table
    per selector instance that every client on the membership shares.
    Client A routes a keyspace (filling the table), the bank changes,
    and A, client B (which has not routed since) and the brick's client
    must all route every store, read and batch by the new ring — the
    pick a client with no memo would make."""
    sim, net, ms, ctrl, client = make_elastic(3, selector_name)
    sel = client.selector
    if selector_name != "ketama":
        sel = make_selector(selector_name)
        client = MemcacheClient(client.endpoint, client.servers, sel, membership=ms)

    def peer(name, selector=sel):
        return MemcacheClient(
            Endpoint(net, Node(sim, name)), client.servers, selector, membership=ms
        )

    b, brick = peer("client-b"), peer("brick")
    # Data keys of 2 KiB blocks, every sixth a ``:stat`` key instead.
    ks = [f"/f{i % 7}:stat" if i % 6 == 0 else f"/f{i % 7}:{i * 2048}" for i in range(200)]

    def routes(c):
        memo = c._read_memo()
        return [(c.owners(k)[0], memo.get(k, c._read_idx(k))) for k in ks]

    def fresh():
        return [(_fresh_pick(client, k),) * 2 for k in ks]

    def memoised_fresh(table):
        # Every routed key's pick is memoised, and is the fresh pick.
        return table.keys() == set(ks) and all(
            v == _fresh_pick(client, k) for k, v in table.items()
        )

    before = routes(client)
    assert before == fresh()
    assert routes(b)[:3] == before[:3]  # B holds this epoch's table
    old = ms.owner_table(sel)
    assert b._primaries is old and memoised_fresh(old)
    snapshot = dict(old)
    if change == "add":
        ctrl.add(window=0.01)
    elif change == "drain":
        ctrl.drain(1, window=0.01)
    elif change == "remove":
        ctrl.remove(1)
    else:
        client.add_server(MemcachedDaemon(sim, net, Node(sim, "mcd-new"), 16 * MiB))
    after = routes(client)
    assert after == fresh()
    assert after != before  # the change moved some keys
    assert routes(b) == after and routes(brick) == after
    # The previous epoch's table is neither reused nor written into.
    new = ms.owner_table(sel)
    assert new is not old and dict(old) == snapshot
    assert client._primaries is new and b._primaries is new and brick._primaries is new
    assert memoised_fresh(new)
    # A different selector instance on the same membership routes alike
    # from a table of its own.
    other = peer("client-d", make_selector(selector_name))
    assert routes(other) == after
    assert other._primaries is not new and other._primaries == new
    # A batch routes by the same picks: every key lands on its new owner.
    drive(sim, b.set_multi([(k, i, 8, 0, 0) for i, k in enumerate(ks)]))
    for (owner, _), k in zip(after, ks):
        assert ms.members[owner].daemon.engine.get(k) is not None
