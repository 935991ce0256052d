"""Tests for StatBuf / ReadResult / slice_result."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.localfs.types import ReadResult, StatBuf, slice_result


def test_statbuf_copy_is_independent():
    a = StatBuf(ino=1, size=100)
    b = a.copy()
    b.size = 200
    assert a.size == 100


def test_statbuf_copy_carries_every_field():
    """``copy`` names the fields itself (no ``dataclasses.replace``): a
    field added to StatBuf and forgotten there fails here."""
    names = [f.name for f in dataclasses.fields(StatBuf)]
    a = StatBuf(**{name: 1000 + i for i, name in enumerate(names)})
    assert a.copy() == a and a.copy() is not a


def test_statbuf_blocks():
    assert StatBuf(ino=1, size=0).blocks == 0
    assert StatBuf(ino=1, size=1).blocks == 1
    assert StatBuf(ino=1, size=512).blocks == 1
    assert StatBuf(ino=1, size=513).blocks == 2


def _result(offset, size, version=1):
    return ReadResult(
        offset=offset,
        size=size,
        intervals=[(offset, offset + size, version)],
        data=bytes((i % 251 for i in range(size))),
    )


def test_slice_exact_window():
    r = _result(100, 50)
    s = slice_result(r, 110, 20)
    assert s.offset == 110 and s.size == 20
    assert s.data == r.data[10:30]
    assert s.intervals == [(110, 130, 1)]


def test_slice_past_end_is_short():
    r = _result(0, 100)
    s = slice_result(r, 80, 50)
    assert s.size == 20
    assert s.data == r.data[80:]


def test_slice_fully_past_end_is_empty():
    r = _result(0, 100)
    s = slice_result(r, 150, 10)
    assert s.size == 0
    assert s.data == b""


def test_slice_before_start_rejected():
    r = _result(100, 10)
    with pytest.raises(ValueError):
        slice_result(r, 50, 10)


def test_slice_without_data():
    r = ReadResult(offset=0, size=100, intervals=[(0, 100, 3)], data=None)
    s = slice_result(r, 10, 20)
    assert s.data is None
    assert s.intervals == [(10, 30, 3)]


def test_same_content_via_data_and_intervals():
    a = _result(0, 10)
    b = _result(0, 10)
    assert a.same_content(b)
    c = ReadResult(offset=0, size=10, intervals=[(0, 10, 1)])
    d = ReadResult(offset=0, size=10, intervals=[(0, 5, 1), (5, 10, 1)])
    assert c.same_content(d)  # fragmentation normalised
    e = ReadResult(offset=0, size=10, intervals=[(0, 10, 2)])
    assert not c.same_content(e)
    f = ReadResult(offset=1, size=10, intervals=[(1, 11, 1)])
    assert not c.same_content(f)  # different window


@given(
    st.integers(0, 200),
    st.integers(1, 200),
    st.integers(0, 400),
    st.integers(0, 200),
)
def test_slice_property(src_off, src_size, slice_off_delta, slice_size):
    r = _result(src_off, src_size)
    offset = src_off + slice_off_delta
    s = slice_result(r, offset, slice_size)
    # Size never exceeds request nor source bounds.
    assert 0 <= s.size <= slice_size
    assert offset + s.size <= src_off + src_size or s.size == 0
    if s.data is not None:
        assert len(s.data) == s.size
        lo = offset - src_off
        assert s.data == r.data[lo : lo + s.size]
    # Intervals exactly cover [offset, offset+size).
    pos = offset
    for a, b, _v in s.intervals:
        assert a == pos
        pos = b
    assert pos == offset + s.size
