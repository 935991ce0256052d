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
OPS = ("set", "set_multi", "add", "replace", "append", "touch", "delete", "delete_multi")
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


def seed(client, op, keys):
    """Store ``b"old"`` under every key (``add`` needs them absent)."""
    if op != "add":
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
    if op == "add":
        return (yield from client.add(k, b"new", 3)), {k: b"new"}
    if op == "replace":
        return (yield from client.replace(k, b"new", 3)), {k: b"new"}
    if op == "append":
        return (yield from client.append(k, b"+", 1)), {k: b"old+"}
    if op == "touch":
        return (yield from client.touch(k, 5.0)), {k: b"old"}
    if op == "delete":
        return (yield from client.delete(k)), {k: None}
    return (yield from client.delete_multi(keys)), dict.fromkeys(keys)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("mode", MODES)
def test_every_owner_and_no_other_daemon_reflects_the_mutation(mode, op):
    sim, client, membership, keys = make_bank(mode)
    drive(sim, seed(client, op, keys))
    reply, expect = drive(sim, mutate(client, op, keys))
    assert reply == {"delete_multi": len(keys), "set_multi": set(keys)}.get(op, True)
    for key, value in expect.items():
        want = {} if value is None else dict.fromkeys(client.owners(key), value)
        assert holders(membership, key) == want
    if op == "touch":
        for nid in client.owners(keys[0]):
            assert membership.daemon(nid).engine._items[keys[0]].exptime > 0
    # Extra owners are booked as what they are, never as each other.
    stats = client.stats
    if mode == "replicas":
        assert stats.get("window_writes", 0) == 0
        deletes = {"delete": 2, "delete_multi": 2 * len(keys)}.get(op, 0)
        assert stats.get("replica_deletes", 0) == deletes
    else:
        assert stats.get("replica_writes", 0) == stats.get("replica_deletes", 0) == 0
        assert (stats.get("window_writes", 0) > 0) == (mode != "single")


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("mode", MODES)
def test_a_dead_owner_costs_its_own_copy_and_nothing_else(mode, op):
    sim, client, membership, keys = make_bank(mode)
    # Seed with everyone alive, then kill the last owner of ``keys[0]``.
    drive(sim, seed(client, op, keys))
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


@pytest.mark.parametrize("mode", MODES[1:])
@pytest.mark.parametrize("op", ("add", "replace"))
def test_conditional_store_resolves_on_the_primary_alone(mode, op):
    """The old owner of a resize still holds the key the empty new
    owner lacks, so ``add`` fanned out verbatim would succeed on one
    and fail on the other; resolved on the primary and mirrored, every
    owner ends up agreeing — also when the condition fails."""
    sim, client, membership, keys = make_bank(mode)
    k = keys[0]
    primary, *others = client.owners(k)

    def body():
        # Only the non-primary owners hold the key.
        assert (yield from client.set(k, b"old", 3))
        membership.daemon(primary).engine.delete(k)
        return (yield from getattr(client, op)(k, b"new", 3))

    ok = drive(sim, body())
    if op == "add":
        assert ok is True
        assert holders(membership, k) == dict.fromkeys([primary, *others], b"new")
    else:
        assert ok is False
        assert holders(membership, k) == dict.fromkeys(others, b"old")


@pytest.mark.parametrize("mode", MODES[1:])
def test_primary_only_ops_invalidate_the_other_owners(mode):
    sim, client, membership, keys = make_bank(mode)
    k, c = keys[0], keys[1]
    primary = client.owners(k)[0]

    def body():
        assert (yield from client.set(k, b"old", 3))
        assert (yield from client.set(c, "41", 2))
        token = membership.daemon(primary).engine._items[k].cas
        verdict = yield from client.cas(k, b"new", 3, token)
        value = yield from client.incr(c)
        return verdict, value

    assert drive(sim, body()) == ("STORED", 42)
    assert holders(membership, k) == {primary: b"new"}
    assert list(holders(membership, c)) == [client.owners(c)[0]]
