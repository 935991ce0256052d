"""R-way replication: placement, read spreading, write/purge fan-out.

The coherence invariant under test throughout: every store and every
purge reaches **all** replicas of a key, so no replica can ever serve a
value that a purge was meant to invalidate.
"""

import pytest

from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached.client import HealthPolicy
from repro.memcached.hashing import Crc32Selector, ReplicatedSelector
from repro.net import Endpoint, IPOIB, Network, Node
from repro.sim import Simulator
from repro.util import MiB


def make_cluster(n_mcds=3, replicas=2, health=None, rr_seed=0, mem=16 * MiB):
    sim = Simulator()
    net = Network(sim, IPOIB)
    cep = Endpoint(net, Node(sim, "client"))
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), mem) for i in range(n_mcds)
    ]
    client = MemcacheClient(
        cep, daemons, health=health, replicas=replicas, rr_seed=rr_seed
    )
    return sim, client, daemons


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


# -- selector placement ------------------------------------------------------
def test_replica_sets_are_distinct_and_primary_first():
    base = Crc32Selector()
    sel = ReplicatedSelector(base, replicas=3)
    for i in range(200):
        key = f"/some/file{i}:stat"
        owners = sel.replicas_for(key, 5)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert owners[0] == base.select(key, 5)


def test_replicas_clamped_to_server_count():
    sel = ReplicatedSelector(Crc32Selector(), replicas=4)
    owners = sel.replicas_for("k", 2)
    assert sorted(owners) == [0, 1]


def test_select_is_the_base_selectors_pick():
    base = Crc32Selector()
    sel = ReplicatedSelector(base, replicas=3)
    for i in range(50):
        key = f"key-{i}"
        assert sel.select(key, 4) == base.select(key, 4)


def test_replica_placement_is_deterministic():
    a = ReplicatedSelector(Crc32Selector(), replicas=2)
    b = ReplicatedSelector(Crc32Selector(), replicas=2)
    keys = [f"block:{i}" for i in range(100)]
    assert [a.replicas_for(k, 6) for k in keys] == [b.replicas_for(k, 6) for k in keys]


def test_selector_validation():
    with pytest.raises(ValueError):
        ReplicatedSelector(Crc32Selector(), replicas=0)


# -- client wiring -----------------------------------------------------------
def test_r1_books_no_replica_counters():
    sim, client, _ = make_cluster(replicas=1)
    assert len(client.owners("k")) == 1

    def proc():
        yield from client.set("k", b"v", 1)
        yield from client.get("k")
        yield from client.delete("k")

    drive(sim, proc())
    for stat in ("replica_reads", "replica_writes", "replica_deletes",
                 "replica_failovers"):
        assert client.stats.get(stat, 0) == 0


def test_client_replicas_validation():
    sim, client, daemons = make_cluster(replicas=1)
    with pytest.raises(ValueError):
        MemcacheClient(client.endpoint, daemons, replicas=0)


# -- write fan-out -----------------------------------------------------------
def test_set_reaches_every_replica_and_only_replicas():
    sim, client, daemons = make_cluster(n_mcds=3, replicas=2)

    def proc():
        ok = yield from client.set("k", b"v", 1)
        return ok

    assert drive(sim, proc()) is True
    owners = client.owners("k")
    assert len(owners) == 2
    for i, mcd in enumerate(daemons):
        stored = "k" in mcd.engine._items
        assert stored == (i in owners)
    assert client.stats.get("replica_writes") == 1


def test_concat_fans_out():
    sim, client, daemons = make_cluster(n_mcds=3, replicas=2)

    def proc():
        yield from client.set("k", b"mid", 3)
        yield from client.append("k", b">", 1)
        yield from client.prepend("k", b"<", 1)

    drive(sim, proc())
    for i in client.owners("k"):
        assert daemons[i].engine._items["k"].value == b"<mid>"


def test_write_survives_one_dead_replica():
    sim, client, daemons = make_cluster(n_mcds=3, replicas=2)
    owners = client.owners("k")
    daemons[owners[0]].kill()

    def proc():
        ok = yield from client.set("k", b"v", 1)
        return ok

    assert drive(sim, proc()) is True  # the value is serveable
    assert "k" in daemons[owners[1]].engine._items
    assert client.stats.get("errors") == 1


# -- purge fan-out (the coherence invariant) ---------------------------------
def test_delete_purges_every_replica():
    sim, client, daemons = make_cluster(n_mcds=3, replicas=3)

    def proc():
        yield from client.set("k", b"v", 1)
        ok = yield from client.delete("k")
        return ok

    assert drive(sim, proc()) is True
    for mcd in daemons:
        assert "k" not in mcd.engine._items
    # The set booked its two replica legs as writes, the delete as deletes.
    assert client.stats.get("replica_writes") == 2
    assert client.stats.get("replica_deletes") == 2


def test_delete_multi_purges_every_replica():
    sim, client, daemons = make_cluster(n_mcds=4, replicas=2)
    keys = [f"/f:data:{i}" for i in range(12)]

    def proc():
        for k in keys:
            yield from client.set(k, b"v", 1)
        n = yield from client.delete_multi(keys)
        return n

    # ``deletes`` keeps its legacy meaning: primary copies removed.
    assert drive(sim, proc()) == len(keys)
    for mcd in daemons:
        assert mcd.engine.curr_items == 0
    assert client.stats.get("replica_deletes") == len(keys)


def test_overwrite_leaves_no_replica_stale():
    sim, client, daemons = make_cluster(n_mcds=3, replicas=2)

    def proc():
        yield from client.set("k", b"old", 3)
        yield from client.set("k", b"new", 3)
        values = []
        for _ in range(4):  # round-robin touches both replicas
            v = yield from client.get("k")
            values.append(v.value)
        return values

    assert drive(sim, proc()) == [b"new"] * 4


# -- read spreading ----------------------------------------------------------
def test_reads_round_robin_across_replicas():
    sim, client, daemons = make_cluster(n_mcds=4, replicas=2)

    def proc():
        yield from client.set("k", b"v", 1)
        for _ in range(10):
            v = yield from client.get("k")
            assert v.value == b"v"

    drive(sim, proc())
    owners = client.owners("k")
    loads = [daemons[i].engine.stats.get("cmd_get", 0) for i in owners]
    assert sorted(loads) == [5, 5]
    # Reads that landed on a secondary are surfaced as a client metric.
    assert client.stats.get("replica_reads") == 5


def test_per_key_cursors_split_every_key():
    sim, client, daemons = make_cluster(n_mcds=4, replicas=2)
    keys = [f"key-{i}" for i in range(8)]

    def proc():
        for k in keys:
            yield from client.set(k, b"v", 1)
        # Interleave reads so a shared cursor would parity-lock.
        for _ in range(4):
            for k in keys:
                yield from client.get(k)

    drive(sim, proc())
    for k in keys:
        owners = client.owners(k)
        loads = [daemons[i].engine.stats.get("cmd_get", 0) for i in owners]
        # Each key's 4 reads split exactly 2/2 over its two replicas —
        # other keys sharing a daemon only add to *their* owners.
        assert all(load >= 2 for load in loads)


def test_reads_fail_over_around_ejected_replica():
    sim, client, daemons = make_cluster(
        n_mcds=3, replicas=2, health=HealthPolicy(eject_after=1, cooldown=10.0)
    )
    owners = client.owners("k")

    def proc():
        yield from client.set("k", b"v", 1)
        daemons[owners[0]].kill()
        values = []
        for _ in range(6):
            v = yield from client.get("k")
            values.append(None if v is None else v.value)
        return values

    values = drive(sim, proc())
    # At most one read hit the dead replica before it was ejected; from
    # then on every read lands on the survivor with the correct bytes.
    assert values.count(None) <= 1
    assert all(v == b"v" for v in values[1:])
    assert client.stats.get("replica_failovers", 0) >= 1


# -- get_multi ---------------------------------------------------------------
def test_get_multi_spreads_and_returns_all_hits():
    sim, client, daemons = make_cluster(n_mcds=4, replicas=2)
    keys = [f"key-{i}" for i in range(10)]

    def proc():
        for k in keys:
            yield from client.set(k, b"v", 1)
        out = yield from client.get_multi(keys + ["ghost"])
        return out

    out = drive(sim, proc())
    assert sorted(out) == sorted(keys)
    assert client.stats.get("hits") == len(keys)
    assert client.stats.get("misses") == 1


def test_get_multi_duplicate_keys_not_counted_as_misses():
    sim, client, _ = make_cluster(n_mcds=2, replicas=1)

    def proc():
        yield from client.set("k", b"v", 1)
        out = yield from client.get_multi(["k", "k", "k", "ghost", "ghost"])
        return out

    out = drive(sim, proc())
    assert sorted(out) == ["k"]
    # 2 distinct keys probed: one hit, one miss — duplicated hits must
    # not book phantom misses.
    assert client.stats.get("hits") == 1
    assert client.stats.get("misses") == 1
