"""Tests for units parsing/formatting and online statistics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util import (
    Counter,
    GiB,
    Histogram,
    KiB,
    MiB,
    OnlineStats,
    fmt_bytes,
    fmt_rate,
    fmt_time,
    parse_size,
)


# -- units ----------------------------------------------------------------
@pytest.mark.parametrize(
    "text,expected",
    [
        ("64", 64),
        ("2K", 2 * KiB),
        ("2k", 2 * KiB),
        ("8KiB", 8 * KiB),
        ("1.5MiB", int(1.5 * MiB)),
        ("1g", GiB),
        ("256b", 256),
        (4096, 4096),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("bad", ["", "abc", "12q", "-5", "0.3b"])
def test_parse_size_rejects(bad):
    with pytest.raises(ValueError):
        parse_size(bad)


def test_fmt_bytes():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(3 * MiB) == "3.0 MiB"
    assert fmt_bytes(2.5 * GiB) == "2.5 GiB"


def test_fmt_time():
    assert fmt_time(0) == "0 s"
    assert "ns" in fmt_time(5e-9)
    assert "us" in fmt_time(35e-6)
    assert "ms" in fmt_time(0.004)
    assert fmt_time(2.5) == "2.500 s"


def test_fmt_rate():
    assert "MB/s" in fmt_rate(417e6)
    assert "GB/s" in fmt_rate(1.4e9)


# -- OnlineStats ------------------------------------------------------------
def test_online_stats_basic():
    s = OnlineStats()
    for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        s.add(x)
    assert s.n == 8
    assert s.mean == pytest.approx(5.0)
    assert s.stdev == pytest.approx(2.138, rel=1e-3)
    assert s.min == 2.0 and s.max == 9.0
    assert s.total == pytest.approx(40.0)


def test_online_stats_empty():
    s = OnlineStats()
    assert s.n == 0 and s.mean == 0.0 and s.variance == 0.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
def test_online_matches_numpy(xs):
    import numpy as np

    s = OnlineStats()
    for x in xs:
        s.add(x)
    assert s.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)
    assert s.variance == pytest.approx(float(np.var(xs, ddof=1)), rel=1e-6, abs=1e-6)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
)
def test_merge_equals_combined(xs, ys):
    a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
    for x in xs:
        a.add(x)
        c.add(x)
    for y in ys:
        b.add(y)
        c.add(y)
    a.merge(b)
    assert a.n == c.n
    assert a.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-6)
    assert a.variance == pytest.approx(c.variance, rel=1e-6, abs=1e-6)
    assert a.min == c.min and a.max == c.max


def test_merge_into_empty():
    a, b = OnlineStats(), OnlineStats()
    b.add(3.0)
    b.add(5.0)
    a.merge(b)
    assert a.n == 2 and a.mean == 4.0


def test_merge_from_empty_is_noop():
    a, b = OnlineStats(), OnlineStats()
    a.add(3.0)
    a.add(5.0)
    a.merge(b)
    assert a.n == 2
    assert a.mean == 4.0
    assert a.min == 3.0 and a.max == 5.0
    assert a.total == pytest.approx(8.0)


def test_merge_folds_min_max_total():
    a, b = OnlineStats(), OnlineStats()
    for x in (5.0, 7.0):
        a.add(x)
    for y in (1.0, 11.0):
        b.add(y)
    a.merge(b)
    assert a.n == 4
    assert a.min == 1.0
    assert a.max == 11.0
    assert a.total == pytest.approx(24.0)
    # The source is left intact.
    assert b.n == 2 and b.min == 1.0 and b.max == 11.0


# -- Histogram ---------------------------------------------------------------
def test_histogram_percentiles_monotone():
    h = Histogram(lo=1e-6, hi=1.0)
    for i in range(1, 1001):
        h.add(i * 1e-4)
    p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
    assert p50 <= p90 <= p99
    assert h.n == 1000


def test_histogram_extremes_clamp():
    h = Histogram(lo=1e-6, hi=1e-3)
    h.add(1e-9)  # below lo
    h.add(10.0)  # above hi
    assert h.n == 2
    assert h.percentile(100) >= 1e-3


def test_histogram_percentile_never_exceeds_max():
    h = Histogram(lo=1e-6, hi=1.0)
    for v in (3e-4, 3e-4, 5e-4):
        h.add(v)
    # Bucket upper edges overshoot the samples; the clamp keeps every
    # percentile at or below the observed maximum, and p100 exact.
    for p in (50, 95, 99, 100):
        assert h.percentile(p) <= 5e-4
    assert h.percentile(100) == 5e-4


def test_histogram_summary():
    empty = Histogram()
    assert empty.summary() == {
        "p50": 0.0,
        "p95": 0.0,
        "p99": 0.0,
        "mean": 0.0,
        "max": 0.0,
    }
    h = Histogram(lo=1e-6, hi=1.0)
    for i in range(1, 101):
        h.add(i * 1e-4)
    s = h.summary()
    assert set(s) == {"p50", "p95", "p99", "mean", "max"}
    assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
    assert s["mean"] == pytest.approx(50.5e-4)
    assert s["max"] == pytest.approx(1e-2)


def test_histogram_merge():
    a = Histogram(lo=1e-6, hi=1.0)
    b = Histogram(lo=1e-6, hi=1.0)
    for v in (1e-4, 2e-4):
        a.add(v)
    for v in (4e-4, 8e-4, 1.6e-3):
        b.add(v)
    a.merge(b)
    assert a.n == 5
    assert a.stats.max == pytest.approx(1.6e-3)
    assert a.percentile(100) == pytest.approx(1.6e-3)
    assert b.n == 3  # source untouched

    incompatible = Histogram(lo=1e-3, hi=1.0)
    with pytest.raises(ValueError):
        a.merge(incompatible)


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(lo=0)
    with pytest.raises(ValueError):
        Histogram(lo=1, hi=0.5)
    h = Histogram()
    with pytest.raises(ValueError):
        h.percentile(0)


# -- Counter ------------------------------------------------------------------
def test_counter():
    c = Counter()
    c.inc("hits")
    c.inc("hits", 4)
    assert c.get("hits") == 5
    assert c["misses"] == 0
    d = Counter()
    d.inc("hits", 2)
    d.inc("evictions")
    c.merge(d)
    assert c.as_dict() == {"hits": 7, "evictions": 1}


def test_histogram_empty_percentile_raises():
    h = Histogram()
    with pytest.raises(ValueError, match="empty histogram"):
        h.percentile(50)
    # summary() is the soft-default path and must not raise.
    assert h.summary()["p99"] == 0.0


def test_histogram_merge_error_names_both_layouts():
    a = Histogram(lo=1e-6, hi=1.0)
    b = Histogram(lo=1e-3, hi=1.0, base=4.0)
    with pytest.raises(ValueError) as err:
        a.merge(b)
    msg = str(err.value)
    assert "lo=1e-06" in msg and "lo=0.001" in msg and "base=4.0" in msg
