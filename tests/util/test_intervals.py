"""Unit + property tests for the interval version map."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.intervals import HOLE, IntervalVersionMap


def test_empty_read_is_hole():
    m = IntervalVersionMap()
    assert m.read(0, 10) == [(0, 10, HOLE)]
    assert m.end == 0
    assert len(m) == 0


def test_single_write_roundtrip():
    m = IntervalVersionMap()
    m.write(5, 15, 1)
    assert m.read(5, 15) == [(5, 15, 1)]
    assert m.read(0, 20) == [(0, 5, HOLE), (5, 15, 1), (15, 20, HOLE)]
    assert m.end == 15


def test_overwrite_replaces_middle():
    m = IntervalVersionMap()
    m.write(0, 30, 1)
    m.write(10, 20, 2)
    assert m.read(0, 30) == [(0, 10, 1), (10, 20, 2), (20, 30, 1)]


def test_sequential_appends_distinct_versions():
    m = IntervalVersionMap()
    for i in range(10):
        m.write(i * 4, (i + 1) * 4, i + 1)
    assert len(m) == 10
    assert m.read(0, 40) == [(i * 4, (i + 1) * 4, i + 1) for i in range(10)]


def test_adjacent_same_version_coalesces():
    m = IntervalVersionMap()
    m.write(0, 5, 7)
    m.write(5, 10, 7)
    assert len(m) == 1
    assert m.read(0, 10) == [(0, 10, 7)]


def test_full_overwrite_collapses():
    m = IntervalVersionMap()
    for i in range(20):
        m.write(i, i + 1, i + 1)
    m.write(0, 20, 99)
    assert len(m) == 1
    assert m.read(0, 20) == [(0, 20, 99)]


def test_partial_read_clips():
    m = IntervalVersionMap()
    m.write(0, 100, 3)
    assert m.read(40, 60) == [(40, 60, 3)]


def test_zero_length_ops():
    m = IntervalVersionMap()
    m.write(5, 5, 1)  # no-op
    assert len(m) == 0
    assert m.read(5, 5) == []


def test_validation():
    m = IntervalVersionMap()
    with pytest.raises(ValueError):
        m.write(-1, 5, 1)
    with pytest.raises(ValueError):
        m.write(5, 3, 1)
    with pytest.raises(ValueError):
        m.write(0, 5, 0)  # HOLE version reserved
    with pytest.raises(ValueError):
        m.read(5, 3)


# -- property tests: the map must agree with a naive byte array -------------
write_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 60)), min_size=1, max_size=40
)


@settings(max_examples=200)
@given(write_strategy)
def test_matches_naive_model(writes):
    m = IntervalVersionMap()
    naive = [HOLE] * 512
    for version, (start, length) in enumerate(writes, start=1):
        m.write(start, start + length, version)
        for i in range(start, start + length):
            naive[i] = version
        m.check_invariants()
    got = m.read(0, 512)
    # Expand intervals back to bytes and compare.
    expanded = []
    for s, e, v in got:
        expanded.extend([v] * (e - s))
    assert expanded == naive


@settings(max_examples=100)
@given(write_strategy, st.integers(0, 250), st.integers(0, 250))
def test_read_covers_request_exactly(writes, a, b):
    start, end = min(a, b), max(a, b)
    m = IntervalVersionMap()
    for version, (s, length) in enumerate(writes, start=1):
        m.write(s, s + length, version)
    got = m.read(start, end)
    # Full, gapless, ordered coverage of [start, end).
    pos = start
    for s, e, v in got:
        assert s == pos and e > s
        pos = e
    assert pos == end or (start == end and got == [])
