"""CRC32 correctness: ``crc32`` (zlib-backed) and the from-scratch table
implementation kept as its reference must agree bit for bit — on bytes,
running checksums and ``str`` keys — and the libmemcache fold must stay
in range."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.util.crc32 import crc32, crc32_reference, memcache_hash


KNOWN = [
    (b"", 0x00000000),
    (b"a", 0xE8B7BE43),
    (b"abc", 0x352441C2),
    (b"123456789", 0xCBF43926),
    (b"/mnt/gluster/file0001:stat", None),  # value checked vs zlib below
]


@pytest.mark.parametrize("data,expected", KNOWN)
def test_known_vectors(data, expected):
    if expected is not None:
        assert crc32(data) == expected
    assert crc32(data) == crc32_reference(data) == zlib.crc32(data)


@given(st.binary(max_size=2048))
def test_matches_zlib(data):
    assert crc32(data) == crc32_reference(data) == zlib.crc32(data)
    assert crc32(bytearray(data)) == crc32(memoryview(data)) == crc32(data)


@given(st.binary(max_size=512), st.binary(max_size=512), st.integers(0, 0xFFFFFFFF))
def test_running_checksum_matches_reference_loop(head, tail, start):
    """The ``value`` argument (any 32-bit start, and chained calls)."""
    assert crc32(tail, start) == crc32_reference(tail, start)
    assert crc32(tail, crc32(head)) == crc32_reference(tail, crc32_reference(head))
    assert crc32(tail, crc32(head)) == crc32(head + tail)


@given(st.text(max_size=300))
def test_str_keys_match_reference_loop(key):
    """Non-ASCII keys are hashed as their UTF-8 bytes by both."""
    assert crc32(key) == crc32_reference(key) == crc32_reference(key.encode("utf-8"))
    assert memcache_hash(key) == (crc32_reference(key) >> 16) & 0x7FFF


@given(st.binary(max_size=512), st.integers(1, 511))
def test_incremental_equals_oneshot(data, split):
    split = min(split, len(data))
    partial = crc32(data[:split])
    assert crc32(data[split:], partial) == crc32(data)


def test_str_input_utf8():
    assert crc32("abc") == crc32(b"abc")
    assert crc32("héllo") == crc32("héllo".encode("utf-8"))


@given(st.text(min_size=1, max_size=300))
def test_memcache_hash_range(key):
    h = memcache_hash(key)
    assert 0 <= h <= 0x7FFF


def test_memcache_hash_spreads_keys():
    """IMCa keys (path + block offset) must spread across servers."""
    for nservers in (2, 4, 6):
        buckets = [0] * nservers
        for i in range(4096):
            key = f"/mnt/gluster/d{i % 13}/file{i:06d}:{(i * 2048)}"
            buckets[memcache_hash(key) % nservers] += 1
        expected = 4096 / nservers
        for b in buckets:
            assert abs(b - expected) / expected < 0.25
