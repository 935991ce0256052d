"""Tests for the LRU cache and the page cache."""

import pytest
from hypothesis import given, strategies as st

from repro.oscache import LruCache, PageCache


# -- LruCache ---------------------------------------------------------------
def test_lru_put_get():
    c = LruCache(2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == 1
    assert len(c) == 2


def test_lru_eviction_order():
    c = LruCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")  # promote a
    evicted = c.put("c", 3)
    assert evicted == [("b", 2)]
    assert "a" in c and "c" in c


def test_lru_peek_does_not_promote():
    c = LruCache(2)
    c.put("a", 1)
    c.put("b", 2)
    c.peek("a")
    evicted = c.put("c", 3)
    assert evicted == [("a", 1)]


def test_lru_remove_and_stats():
    c = LruCache(4)
    c.put("a", 1)
    assert c.remove("a") is True
    assert c.remove("a") is False
    assert c.get("a") is None
    assert c.stats.get("misses") == 1


def test_lru_update_existing_key():
    c = LruCache(2)
    c.put("a", 1)
    c.put("a", 99)
    assert c.get("a") == 99
    assert len(c) == 1


def test_lru_capacity_validation():
    with pytest.raises(ValueError):
        LruCache(0)


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=200))
def test_lru_never_exceeds_capacity(ops):
    cap = 8
    c = LruCache(cap)
    for key, is_put in ops:
        if is_put:
            c.put(key, key)
        else:
            c.get(key)
        assert len(c) <= cap


# -- PageCache ----------------------------------------------------------------
def test_pagecache_miss_then_hit():
    pc = PageCache(capacity_bytes=64 * 4096)
    missing = pc.lookup("f", 0, 8192)
    assert missing == [(0, 8192)]
    pc.insert("f", 0, 8192)
    assert pc.lookup("f", 0, 8192) == []
    assert pc.stats.get("page_hits") == 2
    assert pc.stats.get("page_misses") == 2


def test_pagecache_partial_miss_merged():
    pc = PageCache(capacity_bytes=64 * 4096)
    pc.insert("f", 0, 4096)  # page 0 resident
    missing = pc.lookup("f", 0, 4096 * 3)
    assert missing == [(4096, 8192)]  # pages 1-2 merged


def test_pagecache_unaligned_range_covers_pages():
    pc = PageCache(capacity_bytes=64 * 4096)
    missing = pc.lookup("f", 100, 50)
    assert missing == [(0, 4096)]
    missing = pc.lookup("f", 4000, 200)  # spans pages 0 and 1
    assert missing == [(0, 8192)]


def test_pagecache_eviction_under_pressure():
    pc = PageCache(capacity_bytes=4 * 4096)
    pc.insert("f", 0, 4 * 4096)
    evicted = pc.insert("g", 0, 2 * 4096)
    assert evicted == 2
    assert pc.contains("g", 0, 2 * 4096)
    assert not pc.contains("f", 0, 4096)  # oldest pages gone
    assert len(pc) == 4


def test_pagecache_working_set_larger_than_memory_thrashes():
    """Fig 1 mechanism: a scan over a working set > capacity never hits."""
    pc = PageCache(capacity_bytes=16 * 4096)
    size = 64 * 4096
    # First scan: all misses.
    for off in range(0, size, 4096):
        pc.lookup("f", off, 4096)
        pc.insert("f", off, 4096)
    # Second scan: still all misses (LRU evicted the front).
    misses_before = pc.stats.get("page_misses")
    for off in range(0, size, 4096):
        assert pc.lookup("f", off, 4096) != []
        pc.insert("f", off, 4096)
    assert pc.stats.get("page_misses") == misses_before + 64


def test_pagecache_invalidate():
    pc = PageCache(capacity_bytes=64 * 4096)
    pc.insert("f", 0, 8 * 4096)
    pc.invalidate("f", 0, 4096)
    assert pc.lookup("f", 0, 4096) == [(0, 4096)]
    pc.invalidate_file("f")
    assert len(pc) == 0


def test_pagecache_zero_size_lookup():
    pc = PageCache(capacity_bytes=64 * 4096)
    assert pc.lookup("f", 0, 0) == []


def test_pagecache_validation():
    with pytest.raises(ValueError):
        PageCache(capacity_bytes=100, page_size=4096)
    with pytest.raises(ValueError):
        PageCache(capacity_bytes=4096, page_size=128)
    pc = PageCache(capacity_bytes=4 * 4096)
    with pytest.raises(ValueError):
        pc.lookup("f", -1, 5)


def test_resident_bytes():
    pc = PageCache(capacity_bytes=64 * 4096)
    pc.insert("f", 0, 3 * 4096)
    assert len(pc) * pc.page_size == 3 * 4096


class _ReferencePageLru:
    """The page cache spelled out one page at a time: an LRU list of
    ``(file, page)`` entries and a counter bump per page probed."""

    def __init__(self, capacity_pages: int, page_size: int) -> None:
        self.capacity = capacity_pages
        self.page_size = page_size
        self.order: list = []
        self.hits = self.misses = self.evictions = 0

    def _pages(self, offset, size):
        if not size:
            return []
        return range(offset // self.page_size, (offset + size - 1) // self.page_size + 1)

    def lookup(self, file_id, offset, size):
        missing = []
        for page in self._pages(offset, size):
            key = (file_id, page)
            if key in self.order:
                self.order.remove(key)
                self.order.append(key)
                self.hits += 1
            else:
                self.misses += 1
                start = page * self.page_size
                if missing and sum(missing[-1]) == start:
                    missing[-1] = (missing[-1][0], missing[-1][1] + self.page_size)
                else:
                    missing.append((start, self.page_size))
        return missing

    def insert(self, file_id, offset, size):
        evicted = 0
        for page in self._pages(offset, size):
            key = (file_id, page)
            if key in self.order:
                self.order.remove(key)
            self.order.append(key)
            while len(self.order) > self.capacity:
                self.order.pop(0)
                evicted += 1
        self.evictions += evicted
        return evicted


@given(
    st.integers(1, 12),
    st.lists(
        st.tuples(
            st.booleans(), st.integers(0, 2), st.integers(0, 40_000), st.integers(0, 20_000)
        ),
        max_size=60,
    ),
)
def test_pagecache_matches_a_one_entry_per_page_lru(capacity_pages, ops):
    """``lookup`` and ``insert`` hoist their state and book their
    counters once per call; a reference that walks and counts page by
    page returns the same missing ranges and evictions, and ends with
    the same LRU order and counters."""
    pc = PageCache(capacity_bytes=capacity_pages * 4096)
    ref = _ReferencePageLru(capacity_pages, 4096)
    for is_insert, file_id, offset, size in ops:
        if is_insert:
            assert pc.insert(file_id, offset, size) == ref.insert(file_id, offset, size)
        else:
            assert pc.lookup(file_id, offset, size) == ref.lookup(file_id, offset, size)
        assert list(pc._pages) == ref.order
    assert pc.stats.get("page_hits") == ref.hits
    assert pc.stats.get("page_misses") == ref.misses
    assert pc.stats.get("evictions") == ref.evictions
