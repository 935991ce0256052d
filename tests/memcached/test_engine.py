"""Unit + property tests for the memcached engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memcached import MAX_KEY_LEN, McError, MemcachedEngine, PAGE_SIZE
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


def test_replace_only_if_present():
    e, _ = make_engine()
    assert e.replace("k", b"1", 1) is False
    e.set("k", b"1", 1)
    assert e.replace("k", b"2", 1) is True
    assert e.get("k").value == b"2"


def test_append_prepend_bytes():
    e, _ = make_engine()
    e.set("k", b"mid", 3)
    assert e.append("k", b"-end", 4) is True
    assert e.prepend("k", b"start-", 6) is True
    item = e.get("k")
    assert item.value == b"start-mid-end"
    assert item.nbytes == 13


def test_append_missing_fails():
    e, _ = make_engine()
    assert e.append("k", b"x", 1) is False


def test_delete():
    e, _ = make_engine()
    e.set("k", b"v", 1)
    assert e.delete("k") is True
    assert e.delete("k") is False
    assert e.get("k") is None


def test_cas_semantics():
    e, _ = make_engine()
    e.set("k", b"v1", 2)
    cas = e.get("k").cas
    assert e.cas("k", b"v2", 2, cas) == "STORED"
    assert e.cas("k", b"v3", 2, cas) == "EXISTS"  # stale token
    assert e.cas("nope", b"v", 1, cas) == "NOT_FOUND"


def test_cas_stat_accounting():
    """cas outcomes get their own counters and never inflate cmd_set."""
    e, _ = make_engine()
    e.set("k", b"v1", 2)
    cas = e.get("k").cas
    e.cas("k", b"v2", 2, cas)       # STORED
    e.cas("k", b"v3", 2, cas)       # EXISTS
    e.cas("ghost", b"v", 1, 1)      # NOT_FOUND
    assert e.stats.get("cas_hits") == 1
    assert e.stats.get("cas_badval") == 1
    assert e.stats.get("cas_misses") == 1
    assert e.stats.get("cmd_set") == 1  # only the initial set


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


def test_cas_alloc_failure_answers_not_stored():
    e, _ = make_engine(1 * MiB)
    e.set("k", b"small", 16)
    cas = e.get("k").cas
    assert e.cas("k", b"big", PAGE_SIZE // 2, cas) == "NOT_STORED"
    assert e.get("k").value == b"small"
    assert e.stats.get("cas_hits", 0) == 0


def test_failed_concat_preserves_value():
    e, _ = make_engine(1 * MiB)
    e.set("k", b"x", 16)
    assert e.append("k", b"y", PAGE_SIZE // 2) is False
    assert e.get("k").value == b"x"


def test_incr_decr():
    e, _ = make_engine()
    e.set("n", 10, 2)
    assert e.incr("n", 5) == 15
    assert e.decr("n", 20) == 0  # clamps at zero
    assert e.incr("absent") is None
    e.set("s", b"abc", 3)
    with pytest.raises(McError):
        e.incr("s")


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
    assert e._total_size("é" * 125, 1) == e._total_size("e" * 250, 1)


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


def test_touch_extends_ttl():
    e, clock = make_engine()
    e.set("k", b"v", 1, ttl=10.0)
    clock.t = 8.0
    assert e.touch("k", 10.0) is True
    clock.t = 15.0
    assert e.get("k") is not None
    assert e.touch("absent", 1.0) is False


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
    cls = e.slabs.class_for(e._total_size("k0000", 1000))
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
    cls = e.slabs.class_for(e._total_size("k0000", 1000))
    for i in range(cls.chunks_per_page):
        e.set(f"k{i:04d}", None, 1000)
    e.set("newbie", None, 1000)
    assert e.stats.get("evictions") == 1
    assert e.stats.get("reclaimed") == 0


# -- touch / incr / decr accounting and validation ---------------------------
def test_touch_counters_and_key_validation():
    e, _ = make_engine()
    e.set("k", b"v", 1)
    assert e.touch("k", 5.0) is True
    assert e.touch("absent", 5.0) is False
    assert e.stats.get("cmd_touch") == 2
    assert e.stats.get("touch_hits") == 1
    assert e.stats.get("touch_misses") == 1
    with pytest.raises(McError):
        e.touch("x" * (MAX_KEY_LEN + 1), 1.0)


def test_incr_decr_counters_and_key_validation():
    e, _ = make_engine()
    e.set("n", 1, 1)
    assert e.incr("n", 1) == 2
    assert e.incr("absent") is None
    assert e.decr("n", 1) == 1
    assert e.decr("absent") is None
    assert e.stats.get("incr_hits") == 1
    assert e.stats.get("incr_misses") == 1
    assert e.stats.get("decr_hits") == 1
    assert e.stats.get("decr_misses") == 1
    with pytest.raises(McError):
        e.incr("x" * (MAX_KEY_LEN + 1))
    with pytest.raises(McError):
        e.decr("x" * (MAX_KEY_LEN + 1))


def test_incr_recomputes_nbytes_on_width_change():
    e, _ = make_engine()
    e.set("n", 9, 1)
    assert e.incr("n", 1) == 10
    assert e.get("n").nbytes == 2  # len("10")
    e.set("m", 100, 3)
    assert e.decr("m", 1) == 99
    assert e.get("m").nbytes == 2  # len("99")
    e.check_invariants()  # the bytes counter followed both changes


def test_incr_reallocates_when_numeric_width_crosses_class():
    """A width change that overflows the current chunk re-stores the
    item in the right class instead of lying about its size."""
    e, _ = make_engine()
    klen = next(
        n for n in range(1, 512)
        if e.slabs.class_for(e._total_size("k" * n, 1))
        is not e.slabs.class_for(e._total_size("k" * n, 2))
    )
    key = "k" * klen
    e.set(key, 9, 1)
    old_chunk = e.get(key).slab.chunk_size
    assert e.incr(key, 1) == 10
    item = e.get(key)
    assert item.value == 10 and item.nbytes == 2
    assert item.slab.chunk_size > old_chunk
    e.check_invariants()


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
