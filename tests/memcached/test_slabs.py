"""Tests for the slab allocator."""

import pytest

from repro.memcached.slabs import PAGE_SIZE, SlabAllocator
from repro.util import MiB


def alloc(a, size):
    """One chunk for an item of *size* bytes, taken as the engine takes
    it (:meth:`class_for`, then :meth:`alloc_in`): the class used, or
    None when memory is exhausted."""
    cls = a.class_for(size)
    return cls if a.alloc_in(cls) else None


def test_class_sizes_grow_geometrically():
    a = SlabAllocator(16 * MiB)
    sizes = [c.chunk_size for c in a.classes]
    assert sizes == sorted(sizes)
    assert sizes[0] >= 96
    assert sizes[-1] == PAGE_SIZE
    for small, big in zip(sizes, sizes[1:-1]):
        assert 1.1 < big / small < 1.4


def test_class_for_picks_smallest_fitting():
    a = SlabAllocator(16 * MiB)
    cls = a.class_for(100)
    assert cls.chunk_size >= 100
    idx = a.classes.index(cls)
    if idx > 0:
        assert a.classes[idx - 1].chunk_size < 100


def test_class_for_oversized_returns_none():
    a = SlabAllocator(16 * MiB)
    assert a.class_for(PAGE_SIZE + 1) is None
    assert a.class_for(PAGE_SIZE) is not None


def test_alloc_takes_pages_lazily():
    a = SlabAllocator(4 * MiB)
    assert a.total_pages == 0
    cls = alloc(a, 100)
    assert a.total_pages == 1
    assert cls.used_chunks == 1
    assert cls.free_chunks == cls.chunks_per_page - 1


def test_alloc_fails_when_out_of_pages():
    a = SlabAllocator(1 * MiB)  # exactly one page
    assert alloc(a, PAGE_SIZE) is not None  # takes the only page
    assert alloc(a, 100) is None  # different class, no pages left
    assert a.stats.get("alloc_failures") == 1


def test_free_returns_chunk():
    a = SlabAllocator(2 * MiB)
    cls = alloc(a, 100)
    a.free(cls)
    assert cls.used_chunks == 0
    assert cls.free_chunks == cls.chunks_per_page


def test_double_free_detected():
    a = SlabAllocator(2 * MiB)
    cls = alloc(a, 100)
    a.free(cls)
    with pytest.raises(RuntimeError):
        a.free(cls)


def test_validation():
    with pytest.raises(ValueError):
        SlabAllocator(100)
    with pytest.raises(ValueError):
        SlabAllocator(4 * MiB, growth_factor=1.0)


def test_bytes_allocated_tracks_pages():
    a = SlabAllocator(8 * MiB)
    alloc(a, 100)
    alloc(a, 500_000)
    assert a.bytes_allocated == 2 * PAGE_SIZE


def test_fill_one_class_to_capacity():
    a = SlabAllocator(2 * MiB)
    cls0 = a.class_for(1000)
    n = 0
    while alloc(a, 1000) is not None:
        n += 1
    # Both pages went to this class.
    assert n == 2 * cls0.chunks_per_page
    assert a.total_pages == 2
