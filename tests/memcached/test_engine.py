"""Unit + property tests for the memcached engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memcached import MAX_KEY_LEN, McError, MemcachedEngine, PAGE_SIZE
from repro.memcached.engine import ITEM_OVERHEAD
from repro.util import MiB


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_engine(mem=16 * MiB):
    clock = FakeClock()
    return MemcachedEngine(mem, clock), clock


# -- basic commands ----------------------------------------------------------
def test_set_get_roundtrip():
    e, _ = make_engine()
    assert e.set("k", b"value", 5) is True
    item = e.get("k")
    assert item.value == b"value"
    assert item.nbytes == 5
    assert e.stats.get("get_hits") == 1


def test_get_miss():
    e, _ = make_engine()
    assert e.get("absent") is None
    assert e.stats.get("get_misses") == 1


def test_set_overwrites():
    e, _ = make_engine()
    e.set("k", b"old", 3)
    e.set("k", b"new!", 4)
    assert e.get("k").value == b"new!"
    assert e.curr_items == 1


def test_add_only_if_absent():
    e, _ = make_engine()
    assert e.add("k", b"1", 1) is True
    assert e.add("k", b"2", 1) is False
    assert e.get("k").value == b"1"


def test_delete():
    e, _ = make_engine()
    e.set("k", b"v", 1)
    assert e.delete("k") is True
    assert e.delete("k") is False
    assert e.get("k") is None


# -- allocation-failure fidelity ------------------------------------------------
def test_failed_overwrite_preserves_old_value():
    """One page, owned by the small class: a cross-class overwrite
    cannot allocate and must answer NOT_STORED with the old value
    intact — real memcached allocates the new item *before* unlinking
    the old one."""
    e, _ = make_engine(1 * MiB)
    assert e.set("k", b"small", 16) is True
    assert e.set("k", b"big", PAGE_SIZE // 2) is False
    assert e.get("k").value == b"small"
    assert e.stats.get("out_of_memory") == 1
    e.check_invariants()


def test_same_class_overwrite_charges_no_eviction():
    e, _ = make_engine(1 * MiB)
    assert e.set("k", b"a" * 10, 10) is True
    assert e.set("k", b"b" * 10, 10) is True
    assert e.get("k").value == b"b" * 10
    assert e.stats.get("evictions", 0) == 0
    assert e.curr_items == 1


def test_flush_all():
    e, _ = make_engine()
    for i in range(10):
        e.set(f"k{i}", b"v", 1)
    e.flush_all()
    assert e.curr_items == 0
    assert all(e.get(f"k{i}") is None for i in range(10))


# -- limits --------------------------------------------------------------------
def test_key_length_limit():
    e, _ = make_engine()
    e.set("k" * MAX_KEY_LEN, b"v", 1)
    with pytest.raises(McError):
        e.set("k" * (MAX_KEY_LEN + 1), b"v", 1)
    with pytest.raises(McError):
        e.set("", b"v", 1)
    with pytest.raises(McError):
        e.set("bad key", b"v", 1)


def test_key_length_limit_counts_utf8_bytes():
    """memcached's 250 is a byte count: a key of 126 two-byte
    characters is over it although it is only 126 characters long."""
    e, _ = make_engine()
    assert e.set("é" * 125, b"v", 1)  # exactly 250 bytes
    assert e.get("é" * 125).value == b"v"
    for op in (lambda k: e.set(k, b"v", 1), e.get, e.delete, lambda k: e.get_multi(["ok", k])):
        with pytest.raises(McError):
            op("é" * 126)
    # The slab chunk is charged the key's bytes too.
    assert e.set("e" * 250, b"v", 1)
    assert e._items["é" * 125].slab is e._items["e" * 250].slab


def test_value_size_limit_1mb():
    """§2.2 / §4.3.1: 1 MB ceiling on stored data elements."""
    e, _ = make_engine(64 * MiB)
    e.set("big", None, PAGE_SIZE - 1024)  # fits with overhead
    with pytest.raises(McError):
        e.set("toobig", None, PAGE_SIZE + 1)


# -- expiration -------------------------------------------------------------------
def test_lazy_expiration_on_get():
    e, clock = make_engine()
    e.set("k", b"v", 1, ttl=10.0)
    clock.t = 5.0
    assert e.get("k") is not None
    clock.t = 10.0
    assert e.get("k") is None
    assert e.stats.get("expired") == 1
    assert e.curr_items == 0


def test_zero_ttl_never_expires():
    e, clock = make_engine()
    e.set("k", b"v", 1, ttl=0)
    clock.t = 1e9
    assert e.get("k") is not None


# -- eviction ---------------------------------------------------------------------
def test_lru_eviction_order_within_class():
    e, _ = make_engine(1 * MiB)  # one page
    cls = e.slabs.class_for(56 + 4 + 1000)
    cap = cls.chunks_per_page
    for i in range(cap):
        e.set(f"k{i:04d}", None, 1000)
    e.get("k0000")  # promote the oldest
    e.set("newbie", None, 1000)  # forces one eviction
    assert e.stats.get("evictions") == 1
    assert e.get("k0000") is not None  # survived (promoted)
    assert e.get("k0001") is None  # LRU victim


def test_eviction_keeps_capacity_bounded():
    e, _ = make_engine(2 * MiB)
    for i in range(10_000):
        e.set(f"key{i:06d}", None, 500)
    assert e.slabs.bytes_allocated <= 2 * MiB
    assert e.stats.get("evictions") > 0
    e.check_invariants()


def test_get_hit_rate_statistics():
    e, _ = make_engine()
    e.set("a", b"1", 1)
    e.get("a")
    e.get("b")
    d = e.stat_dict()
    assert d["get_hits"] == 1
    assert d["get_misses"] == 1
    assert d["cmd_set"] == 1


def test_get_multi_partial():
    e, _ = make_engine()
    e.set("a", b"1", 1)
    e.set("c", b"3", 1)
    out = e.get_multi(["a", "b", "c"])
    assert set(out) == {"a", "c"}


# -- property tests -------------------------------------------------------------------
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 20), st.integers(1, 3000)),
        st.tuples(st.just("get"), st.integers(0, 20), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 20), st.just(0)),
    ),
    max_size=300,
)


@settings(max_examples=100, deadline=None)
@given(ops_strategy)
def test_engine_invariants_under_random_ops(ops):
    e, _ = make_engine(2 * MiB)
    model: dict[str, int] = {}
    for op, knum, size in ops:
        key = f"key{knum}"
        if op == "set":
            if e.set(key, None, size):
                model[key] = size
            # A failed store leaves any existing value intact (real
            # memcached answers NOT_STORED without touching the item).
        elif op == "get":
            item = e.get(key)
            # An engine hit must agree with the model (evictions may
            # remove model keys from the engine, never the reverse).
            if item is not None:
                assert model.get(key) == item.nbytes
        else:
            e.delete(key)
            model.pop(key, None)
    e.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 900_000), min_size=1, max_size=60))
def test_memory_never_exceeds_limit(sizes):
    e, _ = make_engine(4 * MiB)
    for i, size in enumerate(sizes):
        e.set(f"k{i}", None, size)
        assert e.slabs.bytes_allocated <= 4 * MiB
    e.check_invariants()


# -- scan (migration/cleanup walks) ------------------------------------------
def test_scan_pages_through_all_items_in_insertion_order():
    e, _ = make_engine()
    for i in range(10):
        e.set(f"k{i}", i, 4)
    seen = []
    cursor = 0
    while True:
        cursor, entries = e.scan(cursor, limit=3)
        seen.extend(k for k, *_ in entries)
        if cursor == 0:
            break
    assert seen == [f"k{i}" for i in range(10)]


def test_scan_entry_shape_and_ttl():
    e, clock = make_engine()
    e.set("eternal", b"v", 1)
    e.set("mortal", b"w", 1, ttl=5.0)
    clock.t = 2.0
    _, entries = e.scan(0, limit=10)
    by_key = {k: (value, nbytes, flags, ttl) for k, value, nbytes, flags, ttl in entries}
    assert by_key["eternal"][3] == 0.0  # no expiry
    assert by_key["mortal"][3] == pytest.approx(3.0)  # remaining life


def test_scan_skips_expired_without_unlinking():
    e, clock = make_engine()
    e.set("gone", b"v", 1, ttl=1.0)
    e.set("here", b"w", 1)
    clock.t = 5.0
    _, entries = e.scan(0, limit=10)
    assert [k for k, *_ in entries] == ["here"]


def test_scan_validates_limit():
    e, _ = make_engine()
    with pytest.raises(ValueError):
        e.scan(0, limit=0)


def test_scan_empty_engine():
    e, _ = make_engine()
    assert e.scan(0, limit=8) == (0, [])


# -- expired-first reclaim vs eviction (disjoint counters) -------------------
def test_oom_reclaims_expired_mid_lru_before_evicting_live():
    """An expired item sitting mid-LRU is dead weight: the OOM path must
    unlink it (counted ``reclaimed``) instead of evicting the live LRU
    head (counted ``evictions``) — the counters stay disjoint."""
    e, clock = make_engine(1 * MiB)  # one page
    cls = e.slabs.class_for(ITEM_OVERHEAD + 5 + 1000)
    cap = cls.chunks_per_page
    for i in range(cap):
        ttl = 10.0 if i == cap // 2 else 0
        e.set(f"k{i:04d}", None, 1000, ttl=ttl)
    clock.t = 20.0  # the mid-LRU item is now expired
    assert e.set("newbie", None, 1000) is True
    assert e.stats.get("reclaimed") == 1
    assert e.stats.get("evictions") == 0
    assert e.get(f"k{cap // 2:04d}") is None  # the expired one went
    assert e.get("k0000") is not None  # the live LRU head survived
    e.check_invariants()


def test_oom_evicts_live_when_nothing_expired():
    e, _ = make_engine(1 * MiB)
    cls = e.slabs.class_for(ITEM_OVERHEAD + 5 + 1000)
    for i in range(cls.chunks_per_page):
        e.set(f"k{i:04d}", None, 1000)
    e.set("newbie", None, 1000)
    assert e.stats.get("evictions") == 1
    assert e.stats.get("reclaimed") == 0


# -- scan cursor stability ----------------------------------------------------
def test_scan_cursor_stable_under_concurrent_unlinks():
    """Regression: the old positional cursor skipped survivors when
    already-visited items were deleted between pages (every unlink
    shifted the remainder left under a stale index)."""
    e, _ = make_engine()
    for i in range(8):
        e.set(f"k{i}", i, 4)
    cursor, entries = e.scan(0, limit=3)
    assert [k for k, *_ in entries] == ["k0", "k1", "k2"]
    for k in ("k0", "k1", "k2", "k3"):  # visited and unvisited unlinks
        assert e.delete(k) is True
    cursor, entries = e.scan(cursor, limit=3)
    assert [k for k, *_ in entries] == ["k4", "k5", "k6"]  # no skip, no repeat
    cursor, entries = e.scan(cursor, limit=3)
    assert [k for k, *_ in entries] == ["k7"]
    assert cursor == 0


def test_scan_overwritten_item_reappears_with_new_seq():
    """Overwrite re-links at the tail with a fresh seq: a mid-scan
    overwrite re-surfaces the key later instead of corrupting the
    cursor (same contract as real memcached's LRU crawler)."""
    e, _ = make_engine()
    for i in range(4):
        e.set(f"k{i}", i, 4)
    cursor, entries = e.scan(0, limit=2)
    assert [k for k, *_ in entries] == ["k0", "k1"]
    e.set("k0", 9, 4)
    seen = []
    while True:
        cursor, entries = e.scan(cursor, limit=2)
        seen.extend(k for k, *_ in entries)
        if cursor == 0:
            break
    assert seen == ["k2", "k3", "k0"]


def test_a_bad_key_after_hits_raises_and_books_the_keys_before_it():
    """A lookup validates a key only when it misses: a stored key passed
    ``_check_key`` when it was stored, and a bad key is never stored.
    A bad key after valid hits therefore still raises ``McError``, with
    the keys before it looked up, promoted and booked, and the keys
    after it untouched — as when every key was validated first."""
    e, _ = make_engine()
    for k in ("a", "b", "c"):
        e.set(k, b"1", 1)
    cls = e._items["a"].slab.index
    for bad in ("bad key", "x" * (MAX_KEY_LEN + 1), "é" * 126, ""):
        before = {k: e.stats.get(k) for k in ("cmd_get", "get_hits", "get_misses")}
        with pytest.raises(McError):
            e.get_multi(["c", "absent", bad, "b"])
        assert {k: e.stats.get(k) - before[k] for k in before} == {
            "cmd_get": 2, "get_hits": 1, "get_misses": 1,
        }
        assert list(e._lru[cls])[-1] == "c"  # promoted; "b" was never reached
    assert e.get_multi(["a", "b"]).keys() == {"a", "b"}
