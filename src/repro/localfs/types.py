"""Shared on-disk structures: stat buffers and read results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.util.intervals import IntervalVersionMap, intervals_equal


@dataclass
class StatBuf:
    """POSIX ``struct stat`` — what the stat RPC (and IMCa's ``:stat``
    cache entries) carry.  §4.2: "Stat generally contains information
    about the file size, create and modify times, in addition to other
    information"."""

    ino: int
    size: int = 0
    mode: int = 0o100644
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0

    #: Serialised size of a stat structure on the wire (struct stat64).
    WIRE_SIZE = 144

    def copy(self) -> "StatBuf":
        return StatBuf(
            self.ino, self.size, self.mode, self.nlink, self.uid, self.gid,
            self.atime, self.mtime, self.ctime,
        )

    @property
    def blocks(self) -> int:
        """512-byte sectors, as stat(2) reports."""
        return (self.size + 511) // 512


@dataclass
class ReadResult:
    """Result of a ranged read.

    ``intervals`` identify the *content* (which write produced each
    byte) — see :mod:`repro.util.intervals`; ``data`` carries literal
    bytes when the file is small enough to store them.
    """

    offset: int
    size: int  # actual bytes returned (may be short at EOF)
    intervals: list[tuple[int, int, int]] = field(default_factory=list)
    data: Optional[bytes] = None

    def same_content(self, other: "ReadResult") -> bool:
        """True iff both results describe identical bytes."""
        if (self.offset, self.size) != (other.offset, other.size):
            return False
        if self.data is not None and other.data is not None:
            return self.data == other.data
        return intervals_equal(self.intervals, other.intervals)


def slice_result(r: ReadResult, offset: int, size: int) -> ReadResult:
    """Cut a sub-range out of a ReadResult (used by caching layers).

    ``[offset, offset+size)`` must lie within ``[r.offset, r.offset+r.size)``
    except that it may extend past the end, producing a short result.
    """
    if offset < r.offset:
        raise ValueError("slice starts before the source result")
    end = min(offset + size, r.offset + r.size)
    actual = max(0, end - offset)
    data = None
    if r.data is not None:
        lo = offset - r.offset
        data = r.data[lo : lo + actual]
    intervals = []
    for s, e, v in r.intervals:
        s2, e2 = max(s, offset), min(e, offset + actual)
        if s2 < e2:
            intervals.append((s2, e2, v))
    return ReadResult(offset=offset, size=actual, intervals=intervals, data=data)


@dataclass
class Inode:
    """In-memory inode: authoritative stat + content version map."""

    stat: StatBuf
    versions: IntervalVersionMap = field(default_factory=IntervalVersionMap)
    #: Literal content, kept only while the file stays small.
    data: Optional[bytearray] = field(default_factory=bytearray)
    #: file chunk index -> device byte offset (extent map).
    chunks: dict[int, int] = field(default_factory=dict)
