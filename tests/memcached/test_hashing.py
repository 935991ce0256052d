"""Tests for the key->server selectors (CRC32 / modulo / ketama)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.keys import KeyCache
from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.memcached.hashing import (
    Crc32Selector,
    KetamaSelector,
    ModuloSelector,
    selector,
)
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import MiB
from repro.util.crc32 import memcache_hash


def keys(n=2000):
    return [f"/mnt/vol/d{i % 17}/file{i:06d}:{(i * 2048)}" for i in range(n)]


def test_selector_factory():
    assert isinstance(selector("crc32"), Crc32Selector)
    assert isinstance(selector("modulo"), ModuloSelector)
    assert isinstance(selector("ketama"), KetamaSelector)
    with pytest.raises(KeyError):
        selector("rendezvous")


@pytest.mark.parametrize("name", ["crc32", "modulo", "ketama"])
def test_selection_in_range_and_deterministic(name):
    sel = selector(name)
    for n in (1, 2, 5, 8):
        for key in keys(200):
            a = sel.select(key, n)
            b = sel.select(key, n)
            assert a == b
            assert 0 <= a < n


@pytest.mark.parametrize("name", ["crc32", "ketama"])
def test_distribution_roughly_uniform(name):
    sel = selector(name)
    n = 4
    buckets = [0] * n
    for key in keys():
        buckets[sel.select(key, n)] += 1
    expected = len(keys()) / n
    for b in buckets:
        assert abs(b - expected) / expected < 0.35


def test_modulo_uses_hint():
    """The block ordinal a data key carries (its offset over the block
    size) is the modulo pick; a key with no decimal offset suffix falls
    back to hashing, still in range."""
    sel = ModuloSelector(2048)
    assert [sel.select(f"/f:{b * 2048}", 4) for b in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert [sel.select(f"/f:{b * 2048}", 4) for b in range(8)] == [
        ModuloSelector(4096).select(f"/f:{b * 4096}", 4) for b in range(8)
    ]
    for key in ("k", "/f:stat", "/f:", "/f:-2048", "2048", "/f:1e3"):
        assert sel.select(key, 4) == memcache_hash(key) % 4
    with pytest.raises(ValueError):
        ModuloSelector(0)


@pytest.mark.parametrize("block_size", [256, 2048, 8192])
@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_modulo_picks_a_key_tables_block_index_and_hashes_stat_keys(block_size, n):
    """Every key a :class:`KeyCache` names for block ``i`` goes to
    ``i % n``, and every ``:stat`` key to ``memcache_hash(key) % n``,
    even for a path that itself contains ``:`` and digits."""
    sel, table = selector("modulo", block_size), KeyCache(block_size=block_size)
    for path in ("/mnt/vol/a", "/mnt/vol/odd:name/x:7", "/a:0"):
        for index, key in enumerate(table.data_keys(path, 0, 40)):
            assert sel.select(key, n) == index % n, key
        skey = table.stat_key(path)
        assert sel.select(skey, n) == memcache_hash(skey) % n


def test_ketama_minimal_remap_on_grow():
    """The consistent-hashing property: growing N -> N+1 moves ~1/(N+1)
    of keys, while crc32-modulo moves ~N/(N+1)."""
    ks = keys()

    def moved(sel_factory):
        sel = sel_factory()
        before = {k: sel.select(k, 4) for k in ks}
        after = {k: sel.select(k, 5) for k in ks}
        return sum(1 for k in ks if before[k] != after[k]) / len(ks)

    ketama_moved = moved(KetamaSelector)
    crc32_moved = moved(Crc32Selector)
    assert ketama_moved < 0.4  # ideal: 1/5 = 0.2
    assert crc32_moved > 0.7  # ideal: 4/5 = 0.8
    assert ketama_moved < crc32_moved / 2


def test_ketama_single_server_short_circuit():
    sel = KetamaSelector()
    assert sel.select("anything", 1) == 0


def test_ketama_vnodes_validation():
    with pytest.raises(ValueError):
        KetamaSelector(vnodes=0)


def test_ketama_ring_cached():
    sel = KetamaSelector()
    sel.select("a", 4)
    ring1 = sel._rings[4]
    sel.select("b", 4)
    assert sel._rings[4] is ring1  # built once


@given(st.integers(2, 8))
def test_ketama_all_servers_reachable(n):
    sel = KetamaSelector(vnodes=64)
    seen = {sel.select(k, n) for k in keys(500)}
    assert seen == set(range(n))


# --------------------------------------------------------------------------- #
# Stable node identities (elastic membership)
# --------------------------------------------------------------------------- #
def test_owner_matches_select_for_static_membership():
    """``owner`` over ids [0..n) is the positional ring: the static case
    stays byte-identical after the stable-identity fix."""
    sel = KetamaSelector()
    for n in (1, 2, 3, 5, 8):
        ids = tuple(range(n))
        for k in keys(300):
            assert sel.owner(k, ids) == sel.select(k, n)


def test_owner_single_id_short_circuit():
    sel = KetamaSelector()
    assert sel.owner("anything", (7,)) == 7


def test_owner_empty_membership_rejected():
    sel = KetamaSelector()
    with pytest.raises(ValueError):
        sel.owner("k", ())


def test_removal_does_not_renumber_survivors():
    """The stable-identity property: dropping id 1 from {0,1,2,3} leaves
    every key owned by 0, 2 or 3 exactly where it was (positional
    selectors would renumber everything above the hole)."""
    sel = KetamaSelector()
    before = {k: sel.owner(k, (0, 1, 2, 3)) for k in keys(1000)}
    after = {k: sel.owner(k, (0, 2, 3)) for k in keys(1000)}
    for k, owner in before.items():
        if owner != 1:
            assert after[k] == owner
        else:
            assert after[k] in (0, 2, 3)


def test_non_contiguous_ids_are_first_class():
    sel = KetamaSelector()
    ids = (2, 5, 11)
    owners = {sel.owner(k, ids) for k in keys(500)}
    assert owners == set(ids)


@given(st.integers(2, 16))
def test_remap_fraction_bounded_on_add(n):
    """Growing n -> n+1 remaps between 0.5/(n+1) and 2/(n+1) of the key
    space, and every remapped key lands on the new node (survivors keep
    every key they do not lose to the newcomer)."""
    sel = KetamaSelector()
    ks = keys(1200)
    ids = tuple(range(n))
    grown = tuple(range(n + 1))
    before = {k: sel.owner(k, ids) for k in ks}
    after = {k: sel.owner(k, grown) for k in ks}
    moved = [k for k in ks if before[k] != after[k]]
    frac = len(moved) / len(ks)
    assert 0.5 / (n + 1) <= frac <= 2.0 / (n + 1), frac
    assert all(after[k] == n for k in moved)


@given(st.integers(2, 16))
def test_remap_fraction_bounded_on_remove(n):
    """Removing one of n+1 nodes remaps between 0.5/(n+1) and 2/(n+1):
    exactly the departed node's share, spread over the survivors."""
    sel = KetamaSelector()
    ks = keys(1200)
    full = tuple(range(n + 1))
    shrunk = tuple(i for i in full if i != n // 2)
    before = {k: sel.owner(k, full) for k in ks}
    after = {k: sel.owner(k, shrunk) for k in ks}
    moved = [k for k in ks if before[k] != after[k]]
    frac = len(moved) / len(ks)
    assert 0.5 / (n + 1) <= frac <= 2.0 / (n + 1), frac
    assert all(before[k] == n // 2 for k in moved)


@pytest.mark.parametrize("name", ["crc32", "modulo", "ketama"])
def test_a_clients_memoised_owner_is_the_selectors_pick_for_every_key_and_selector(name):
    """A client memoises every key's owner (per membership epoch) under
    every selector, ``modulo`` included: the pick reads the key alone.
    Every lookup is asked twice, so the second answer comes from the
    memo."""
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [MemcachedDaemon(sim, net, Node(sim, f"m{i}"), MiB) for i in range(4)]
    sel = selector(name)
    mc = MemcacheClient(Endpoint(net, Node(sim, "client")), daemons, selector(name))
    ks = keys(100) + [f"/mnt/vol/f{i}:stat" for i in range(20)]
    for key in ks:
        want = sel.select(key, 4)
        for _ in range(2):
            assert mc.owners(key) == [want], key
            assert mc._read_memo().get(key, mc._read_idx(key)) == want, key
    assert mc._primaries == {k: sel.select(k, 4) for k in ks}
