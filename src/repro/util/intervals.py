"""Byte-range version tracking.

Simulated files can be gigabytes; storing their literal bytes would be
prohibitive.  Instead each file tracks *which write last touched every
byte* in an :class:`IntervalVersionMap`: a sorted list of disjoint
``(start, end, version)`` intervals.  The logical content of byte ``i``
is a pure function of ``(file, i, version)``, so two reads return the
same bytes iff their interval lists agree — which is exactly the
property the IMCa coherency invariant ("a cached read returns what the
server holds") needs.  Sequential workloads coalesce into a handful of
intervals, so memory stays O(distinct write epochs), not O(bytes).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

#: Version value for never-written ("hole") bytes.
HOLE = 0


class IntervalVersionMap:
    """Disjoint, sorted, coalesced byte intervals -> version."""

    __slots__ = ("_starts", "_ends", "_vers")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._vers: list[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return iter(zip(self._starts, self._ends, self._vers))

    @property
    def end(self) -> int:
        """One past the highest written byte (0 if empty)."""
        return self._ends[-1] if self._ends else 0

    def write(self, start: int, end: int, version: int) -> None:
        """Record that bytes ``[start, end)`` now carry *version*."""
        if start < 0 or end < start:
            raise ValueError(f"bad range [{start}, {end})")
        if version <= HOLE:
            raise ValueError("version must be positive")
        if start == end:
            return
        starts, ends, vers = self._starts, self._ends, self._vers

        # Find all intervals overlapping or adjacent to [start, end);
        # adjacency matters so equal-version neighbours coalesce.
        lo = bisect_left(ends, start)  # first interval with end >= start
        hi = bisect_right(starts, end)  # first interval with start > end
        # Fragments of partially-overlapped neighbours to keep.
        keep: list[tuple[int, int, int]] = []
        for i in range(lo, hi):
            s, e, v = starts[i], ends[i], vers[i]
            if s < start:
                keep.append((s, start, v))
            if e > end:
                keep.append((end, e, v))
        new = sorted(keep + [(start, end, version)])
        # Coalesce adjacent equal-version pieces.
        merged: list[tuple[int, int, int]] = []
        for s, e, v in new:
            if merged and merged[-1][2] == v and merged[-1][1] == s:
                merged[-1] = (merged[-1][0], e, v)
            else:
                merged.append((s, e, v))
        self._starts[lo:hi] = [m[0] for m in merged]
        self._ends[lo:hi] = [m[1] for m in merged]
        self._vers[lo:hi] = [m[2] for m in merged]

    def read(self, start: int, end: int) -> list[tuple[int, int, int]]:
        """Versions covering ``[start, end)``, holes included.

        Returns a minimal list of ``(start, end, version)`` covering the
        whole request, with ``version == HOLE`` for unwritten gaps.
        """
        if start < 0 or end < start:
            raise ValueError(f"bad range [{start}, {end})")
        if start == end:
            return []
        out: list[tuple[int, int, int]] = []
        pos = start
        starts, ends, vers = self._starts, self._ends, self._vers
        i = bisect_right(ends, start)
        while pos < end and i < len(starts):
            s, e, v = starts[i], ends[i], vers[i]
            if s >= end:
                break
            if s > pos:
                out.append((pos, s, HOLE))
                pos = s
            take_end = min(e, end)
            out.append((pos, take_end, v))
            pos = take_end
            i += 1
        if pos < end:
            out.append((pos, end, HOLE))
        return out

    def check_invariants(self) -> None:
        """Raise AssertionError if internal structure is corrupt
        (sorted, disjoint, coalesced, positive versions)."""
        prev_end = -1
        prev_ver = None
        for s, e, v in self:
            assert s < e, f"empty interval ({s},{e})"
            assert v > HOLE, f"non-positive version {v}"
            assert s >= prev_end, "overlap or disorder"
            if s == prev_end:
                assert v != prev_ver, "uncoalesced neighbours"
            prev_end, prev_ver = e, v


def coalesce_spans(values: Iterable[int]) -> list[tuple[int, int]]:
    """Coalesce integers into maximal half-open runs ``[start, end)``.

    ``[3, 4, 5, 9, 11, 12] -> [(3, 6), (9, 10), (11, 13)]``.  Input may
    be unsorted and contain duplicates.  Used by the read path to turn
    a set of missing block indices into the fewest contiguous ranges
    (each range becomes one server fill read).
    """
    out: list[tuple[int, int]] = []
    for v in sorted(set(values)):
        if out and out[-1][1] == v:
            out[-1] = (out[-1][0], v + 1)
        else:
            out.append((v, v + 1))
    return out

