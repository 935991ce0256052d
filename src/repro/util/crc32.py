"""CRC-32 (IEEE 802.3): the key hash behind every placement function.

libmemcache uses CRC32 of the key to pick a memcached server
(``crc32(key) % nservers`` after folding); IMCa inherits that default
(paper §4.2, §5.1).  :func:`crc32` is the C implementation in
:mod:`zlib` — every cached block hashes its key, so a byte loop in
Python was a measurable share of a cached read.  The table-driven
algorithm written from scratch stays as :func:`crc32_reference`; the
test suite holds the two bit-identical, so the swap moves no key.
"""

from __future__ import annotations

import zlib

_POLY = 0xEDB88320


def _make_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _make_table()


def crc32(data: bytes | bytearray | memoryview | str, value: int = 0) -> int:
    """Return the CRC-32 checksum of *data*.

    ``str`` input is encoded as UTF-8 (memcached keys are byte strings;
    all keys IMCa generates are ASCII paths plus offsets).

    Parameters
    ----------
    data:
        The bytes to checksum.
    value:
        Running checksum from a previous call, for incremental use.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return zlib.crc32(data, value)


def crc32_reference(data: bytes | bytearray | memoryview | str, value: int = 0) -> int:
    """The from-scratch table-driven CRC-32 that :func:`crc32` must
    match bit for bit (same arguments)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    crc = (~value) & 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return (~crc) & 0xFFFFFFFF


def memcache_hash(key: bytes | str) -> int:
    """The key hash used by libmemcache's default CRC32 distribution.

    libmemcache folds the CRC to 16 bits: ``(crc32(key) >> 16) & 0x7fff``.
    The fold keeps the distribution uniform while avoiding the low-order
    bytes, which for short keys vary little.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    return (zlib.crc32(key) >> 16) & 0x7FFF
