"""``MemcacheClient.set_multi`` is the same items as scalar ``set``s in
order, one pipelined request per owner — and ``delete_multi``'s legs
run together.

Two banks fed the same history, one through ``set_multi`` and one
through scalar ``set``s, must end every round indistinguishable daemon
by daemon: the batch saves messages, it does not change what any MCD
stores, evicts or counts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memcached import McError, MemcacheClient, MemcachedDaemon, PAGE_SIZE
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import MiB

from tests.memcached.test_owners import MODES, drive, make_bank

#: 2 pages per daemon: the 300,000-byte items (3 to a page) evict.
SMALL = 2 * MiB

item_st = st.tuples(
    st.integers(0, 11),  # which key of the bank's universe
    st.sampled_from([10, 100, 5_000, 300_000]),
    st.sampled_from([0, 7]),
    st.sampled_from([0, 0, 60.0]),
)
rounds_st = st.lists(st.lists(item_st, max_size=8), min_size=1, max_size=4)


def universe(client, mode):
    """Twelve keys: some with the mode's full owner list, some (inside
    a window) that did not move and have one owner."""
    width = {"single": 1, "replicas": 3}.get(mode, 2)
    keys = [f"key{i}" for i in range(400)]
    wide = [k for k in keys if len(client.owners(k)) == width][:8]
    return wide + [k for k in keys if k not in wide][:4]


def fingerprint(membership):
    """What a store can change on each daemon, in the orders it can."""
    out = {}
    for nid, m in membership.members.items():
        e = m.daemon.engine
        out[nid] = {
            "items": [
                (i.key, i.value, i.nbytes, i.flags, i.exptime > 0, i.cas, i.slab.index)
                for i in e._items.values()
            ],
            "lru": {idx: list(lru) for idx, lru in e._lru.items()},
            "stats": {n: e.stats.get(n) for n in ("cmd_set", "total_items", "evictions")},
        }
    return out


def booked(client):
    return {n: client.stats.get(n) for n in ("sets", "replica_writes", "window_writes")}


@pytest.mark.parametrize("one_dead", (False, True), ids=("all-alive", "one-dead"))
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=25, deadline=None)
@given(rounds=rounds_st)
def test_set_multi_is_the_scalar_sets_in_order(mode, one_dead, rounds):
    sim_a, batched, bank_a, _ = make_bank(mode, SMALL)
    sim_b, scalar, bank_b, _ = make_bank(mode, SMALL)
    keys = universe(batched, mode)
    dead = batched.owners(keys[0])[-1] if one_dead else None
    if one_dead:
        bank_a.daemon(dead).kill()
        bank_b.daemon(dead).kill()
    serial = 0
    for batch in rounds:
        items = []
        for which, nbytes, flags, ttl in batch:
            serial += 1
            items.append((keys[which], f"v{serial}", nbytes, flags, ttl))

        def one_by_one():
            stored = set()
            for key, value, nbytes, flags, ttl in items:
                if (yield from scalar.set(key, value, nbytes, flags, ttl)):
                    stored.add(key)
            return stored

        errors = batched.stats.get("errors"), scalar.stats.get("errors")
        assert drive(sim_a, batched.set_multi(items)) == drive(sim_b, one_by_one())
        assert fingerprint(bank_a) == fingerprint(bank_b)
        assert booked(batched) == booked(scalar)
        # A failed leg is one error, however many items rode it; the
        # scalar sets pay one per item the dead daemon owns.
        to_dead = sum(dead in scalar.owners(item[0]) for item in items)
        assert batched.stats.get("errors") - errors[0] == (1 if to_dead else 0)
        assert scalar.stats.get("errors") - errors[1] == to_dead


def small_bank(n, mem=PAGE_SIZE):
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), mem) for i in range(n)]
    return sim, MemcacheClient(Endpoint(net, Node(sim, "client")), daemons), daemons


def test_set_multi_rejects_mismatched_hints():
    _sim, client, _ = small_bank(2)
    with pytest.raises(ValueError, match="2 items but 1 hints"):
        next(client.set_multi([("a", b"x", 1, 0, 0), ("b", b"y", 1, 0, 0)], [0]))


def test_duplicate_keys_keep_the_last_value():
    sim, client, daemons = small_bank(2)
    items = [("k", b"first", 5, 0, 0), ("other", b"o", 1, 0, 0), ("k", b"last", 4, 0, 0)]
    assert drive(sim, client.set_multi(items)) == {"k", "other"}
    assert client.server_for("k").engine._items["k"].value == b"last"
    assert client.stats.get("sets") == 3
    assert sum(d.engine.stats.get("cmd_set") for d in daemons) == 3


def test_a_refused_item_fails_alone():
    """Too large for any slab class, or no page left for its class
    (NOT_STORED): the items around it are stored all the same."""
    sim, client, (daemon,) = small_bank(1)  # one page, taken by the first item's class
    items = [
        ("a", b"a", 10, 0, 0),
        ("too-large", b"x", PAGE_SIZE + 1, 0, 0),
        ("no-page", b"y", 300_000, 0, 0),
        ("b", b"b", 10, 0, 0),
    ]
    assert drive(sim, client.set_multi(items)) == {"a", "b"}
    assert set(daemon.engine._items) == {"a", "b"}
    assert client.stats.get("sets") == 4  # answered, though two were refused
    assert client.stats.get("errors") == 0


def test_a_bad_key_mid_batch_stores_and_books_the_items_before_it():
    sim, client, (daemon,) = small_bank(1)
    items = [("a", b"a", 1, 0, 0), ("has space", b"x", 1, 0, 0), ("b", b"b", 1, 0, 0)]
    # The malformed command fails the whole request, as it does a get.
    failure = drive(sim, client.set_multi(items))
    assert isinstance(failure, McError) and "whitespace" in str(failure)
    assert set(daemon.engine._items) == {"a"}
    assert daemon.engine.stats.get("cmd_set") == 1


def test_delete_multi_legs_run_together():
    """Four MCDs, one round trip of simulated time — not four — and a
    dead daemon costs its own copies and one ``errors``."""
    sim, client, daemons = small_bank(4)
    keys = [f"key{i}" for i in range(40)]
    assert {client.owners(k)[0] for k in keys} == {0, 1, 2, 3}
    on_one = [k for k in keys if client.owners(k) == [0]]

    def timed(gen):
        start = sim.now
        result = yield from gen
        return result, sim.now - start

    def store():
        stored = yield from client.set_multi([(k, b"v", 1, 0, 0) for k in keys])
        assert stored == set(keys)

    drive(sim, store())
    deleted, one_trip = drive(sim, timed(client.delete_multi(on_one)))
    assert deleted == len(on_one)
    drive(sim, store())
    deleted, four_legs = drive(sim, timed(client.delete_multi(keys)))
    assert deleted == len(keys)
    assert not any(d.engine._items for d in daemons)
    # Each daemon's share is about a quarter of the keys: together the
    # legs take well under two single-daemon trips, in sequence over 3.
    assert four_legs < 2 * one_trip

    drive(sim, store())
    daemons[3].kill()
    deleted = drive(sim, client.delete_multi(keys))
    assert deleted == sum(client.owners(k) != [3] for k in keys)
    assert not any(d.engine._items for d in daemons[:3])
    assert client.stats.get("errors") == 1
