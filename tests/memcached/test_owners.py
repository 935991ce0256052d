"""The owner-list invariant, for every mode of the bank at once.

``MemcacheClient.owners(key)`` names every daemon a mutation of *key*
must reach: the list of one for an unreplicated key outside a resize,
the R replicas, or the new owner plus the old one while a forwarding
window is open.  After each keyed mutation every owner it names holds
(or lacks) the value and no other daemon does — including with one
owner dead, which costs that copy and nothing else.
"""

import pytest

from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached.hashing import KetamaSelector
from repro.memcached.membership import ElasticController, McdMembership
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import MiB

MODES = ("single", "replicas", "add-window", "drain-window")
OPS = ("set", "set_multi", "delete_multi")
#: Far longer than any test runs: the window stays open throughout.
WINDOW = 10.0


def make_bank(mode, mem=16 * MiB):
    """``(sim, client, membership, keys)``: a 4-daemon bank in *mode*
    and three keys whose owner lists have the mode's shape."""
    sim = Simulator()
    net = Network(sim, IPOIB)

    def spawn(nid):
        return MemcachedDaemon(sim, net, Node(sim, f"mcd{nid}"), mem)

    membership = McdMembership([spawn(i) for i in range(4)])
    client = MemcacheClient(
        Endpoint(net, Node(sim, "client")),
        [m.daemon for m in membership.members.values()],
        KetamaSelector(),
        replicas=3 if mode == "replicas" else 1,
        membership=membership,
    )
    ctrl = ElasticController(sim, membership, net, node_factory=spawn)
    if mode == "add-window":
        ctrl.add(window=WINDOW)
    elif mode == "drain-window":
        ctrl.drain(3, window=WINDOW)
    width = {"single": 1, "replicas": 3}.get(mode, 2)
    keys = [k for k in (f"key{i}" for i in range(400)) if len(client.owners(k)) == width]
    assert len(keys) >= 3
    return sim, client, membership, keys[:3]


def drive(sim, gen):
    """Run *gen* to completion — and no further: the window's settle
    process stays parked."""
    p = sim.process(gen)
    sim.run(until=p)
    return p.value


def holders(membership, key):
    """``{node id: value}`` over every daemon whose engine holds *key*."""
    out = {}
    for nid, m in membership.members.items():
        item = m.daemon.engine._items.get(key)
        if item is not None:
            out[nid] = item.value
    return out


def seed(client, keys):
    """Store ``b"old"`` under every key."""
    for key in keys:
        assert (yield from client.set(key, b"old", 3))


def mutate(client, op, keys):
    """Run *op* on ``keys[0]`` (the multi ops: on all of *keys*);
    returns ``(reply, {key: the value it should now have})``, None
    meaning gone."""
    k = keys[0]
    if op == "set":
        return (yield from client.set(k, b"new", 3)), {k: b"new"}
    if op == "set_multi":
        items = [(key, b"new", 3, 0, 0) for key in keys]
        return (yield from client.set_multi(items)), dict.fromkeys(keys, b"new")
    return (yield from client.delete_multi(keys)), dict.fromkeys(keys)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("mode", MODES)
def test_every_owner_and_no_other_daemon_reflects_the_mutation(mode, op):
    sim, client, membership, keys = make_bank(mode)
    drive(sim, seed(client, keys))
    reply, expect = drive(sim, mutate(client, op, keys))
    assert reply == {"delete_multi": len(keys), "set_multi": set(keys)}.get(op, True)
    for key, value in expect.items():
        want = {} if value is None else dict.fromkeys(client.owners(key), value)
        assert holders(membership, key) == want
    # Extra owners are booked as what they are, never as each other.
    stats = client.stats
    if mode == "replicas":
        assert stats.get("window_writes", 0) == 0
        deletes = 2 * len(keys) if op == "delete_multi" else 0
        assert stats.get("replica_deletes", 0) == deletes
    else:
        assert stats.get("replica_writes", 0) == stats.get("replica_deletes", 0) == 0
        assert (stats.get("window_writes", 0) > 0) == (mode != "single")


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("mode", MODES)
def test_a_dead_owner_costs_its_own_copy_and_nothing_else(mode, op):
    sim, client, membership, keys = make_bank(mode)
    # Seed with everyone alive, then kill the last owner of ``keys[0]``.
    drive(sim, seed(client, keys))
    dead = {client.owners(keys[0])[-1]}
    before = {key: holders(membership, key) for key in keys}
    for nid in dead:
        membership.daemon(nid).kill()
    reply, expect = drive(sim, mutate(client, op, keys))
    assert client.stats.get("errors", 0) > 0
    for key, value in expect.items():
        owners = client.owners(key)
        alive = [nid for nid in owners if nid not in dead]
        # With its only owner dead the op is a no-op that says so.
        if not alive:
            assert key not in reply if op == "set_multi" else not reply
        got = holders(membership, key)
        # A dead daemon keeps whatever it held (wiped when it rejoins).
        for nid in dead:
            assert got.pop(nid, None) == before[key].get(nid)
        want = {} if value is None else dict.fromkeys(alive, value)
        assert got == want
    if op == "delete_multi":
        # Primary-copy removals: the dead daemon's are the ones lost.
        assert reply == sum(client.owners(key)[0] not in dead for key in keys)
    elif op == "set_multi":
        # The keys some live owner stored.
        assert reply == {key for key in keys if set(client.owners(key)) - dead}
    elif mode != "single":
        # Another owner answered, so the op reports success.
        assert reply is True
