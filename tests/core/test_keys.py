"""Tests for the IMCa key schema."""

from hypothesis import given, strategies as st

from repro.core.keys import KeyCache, data_key, is_stat_key, parse_data_key, stat_key
from repro.memcached.engine import MAX_KEY_LEN


def test_stat_key_format():
    assert stat_key("/mnt/a/b") == "/mnt/a/b:stat"
    assert is_stat_key("/mnt/a/b:stat")
    assert not is_stat_key("/mnt/a/b:2048")


def test_data_key_format_and_parse():
    key = data_key("/mnt/file", 4096)
    assert key == "/mnt/file:4096"
    assert parse_data_key(key) == ("/mnt/file", 4096)


def test_overlong_paths_yield_none():
    long_path = "/" + "x" * 300
    assert stat_key(long_path) is None
    assert data_key(long_path, 0) is None


def test_key_limit_counts_utf8_bytes_not_characters():
    path = "/" + "文" * 100  # 101 characters, 301 bytes
    assert len(path + ":stat") <= MAX_KEY_LEN
    assert stat_key(path) is None
    assert data_key(path, 0) is None
    assert KeyCache().data_key(path, 0) is None and KeyCache().stat_key(path) is None
    fits = "/" + "文" * 80  # 241 bytes, + ":stat" = 246
    assert stat_key(fits) == fits + ":stat"


def test_boundary_length():
    path = "/" + "a" * (MAX_KEY_LEN - len(":stat") - 1)
    assert stat_key(path) is not None
    assert stat_key(path + "a") is None


@given(
    st.text(
        alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="/._-"),
        min_size=1,
        max_size=80,
    ),
    st.integers(0, 10**12),
)
def test_data_key_roundtrip_property(path_body, offset):
    path = "/" + path_body
    key = data_key(path, offset)
    if key is not None:
        assert parse_data_key(key) == (path, offset)
        assert len(key) <= MAX_KEY_LEN


def test_stat_and_data_keys_never_collide():
    # ':stat' cannot parse as an integer offset, so the two namespaces
    # are disjoint for any path.
    assert stat_key("/f") != data_key("/f", 0)
