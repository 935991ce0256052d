"""Fixed-size cache blocks: alignment arithmetic and cached values.

"IMCa uses a fixed block size to store file system data in the cache
... IMCa may need to fetch or write additional blocks from/to the MCDs
above and beyond what is requested ... if the beginning or end of the
requested data element is not aligned with the boundary defined by the
blocksize" (§4.3.1, Fig 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.localfs.types import ReadResult
from repro.util.intervals import coalesce_spans


class BlockMapper:
    """Pure arithmetic for one block size."""

    __slots__ = ("block_size",)

    def __init__(self, block_size: int) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.block_size = block_size

    def block_index(self, offset: int) -> int:
        return offset // self.block_size

    def block_offset(self, index: int) -> int:
        return index * self.block_size

    def cover(self, offset: int, size: int) -> range:
        """Block indices whose blocks intersect ``[offset, offset+size)``."""
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        if size == 0:
            return range(0, 0)
        first = offset // self.block_size
        last = (offset + size - 1) // self.block_size
        return range(first, last + 1)

    def align(self, offset: int, size: int) -> tuple[int, int]:
        """Smallest block-aligned ``(offset, size)`` covering the range —
        the extra data of Fig 3."""
        blocks = self.cover(offset, size)
        if not blocks:
            return (offset - offset % self.block_size, 0)
        start = blocks[0] * self.block_size
        end = (blocks[-1] + 1) * self.block_size
        return start, end - start

    def extra_bytes(self, offset: int, size: int) -> int:
        """How many bytes beyond the request the aligned fetch moves."""
        _, aligned = self.align(offset, size)
        return aligned - size


@dataclass
class BlockValue:
    """What SMCache stores in an MCD under a data key.

    Content identity is the sliced interval list (exact); literal bytes
    ride along while the file is small.  ``length`` may be short at EOF.
    """

    path: str
    block_offset: int
    length: int
    intervals: list[tuple[int, int, int]]
    data: Optional[bytes] = None


def split_blocks(mapper: BlockMapper, result: ReadResult, path: str) -> list[BlockValue]:
    """Cut an (aligned) server read into per-block cache values."""
    out: list[BlockValue] = []
    end = result.offset + result.size
    for idx in mapper.cover(result.offset, result.size):
        b_start = mapper.block_offset(idx)
        b_end = min(b_start + mapper.block_size, end)
        if b_end <= b_start:
            continue
        ivs = [
            (max(s, b_start), min(e, b_end), v)
            for s, e, v in result.intervals
            if max(s, b_start) < min(e, b_end)
        ]
        data = None
        if result.data is not None:
            lo = b_start - result.offset
            data = result.data[lo : lo + (b_end - b_start)]
        out.append(BlockValue(path, b_start, b_end - b_start, ivs, data))
    return out


def missing_ranges(
    mapper: BlockMapper, indices: list[int]
) -> list[tuple[int, int]]:
    """Coalesce missing block *indices* into block-aligned byte ranges.

    Each returned ``(offset, size)`` is one contiguous run of missing
    blocks — the fewest server reads that fill a partial hit.
    """
    return [
        (mapper.block_offset(first), (last - first) * mapper.block_size)
        for first, last in coalesce_spans(indices)
    ]


def assemble_blocks(
    mapper: BlockMapper,
    blocks: dict[int, BlockValue],
    offset: int,
    size: int,
    file_size: Optional[int] = None,
) -> Optional[ReadResult]:
    """Rebuild a client read from cached blocks.

    Returns None when the blocks cannot satisfy the request contiguously
    from ``offset`` (treated as a miss by CMCache).

    Without *file_size*, a *short* block (length < block size) is also
    treated as a miss: it was the EOF block when cached, but the client
    cannot know the file's current size — a later write may have
    extended the file past it without touching its bytes (so SMCache
    never re-pushed it), and serving it would truncate the read or hide
    holes.

    With *file_size* (taken from the file's coherent ``:stat`` entry,
    fetched in the same multi-get), the EOF position is known: a short
    block is served iff its length runs exactly to EOF, requests are
    clamped at EOF, and reads entirely past EOF return an empty result.
    """
    if file_size is not None:
        if offset >= file_size:
            return ReadResult(offset=offset, size=0)
        size = min(size, file_size - offset)
    bs = mapper.block_size
    intervals: list[tuple[int, int, int]] = []
    data_parts: list[bytes] = []
    pos = offset
    end = offset + size
    # The interval being grown, ``[run_s, run_e)`` of version ``run_v``:
    # appended once the next piece cannot extend it.
    run_s = run_e = offset
    run_v = None
    for idx in mapper.cover(offset, size):
        boff = idx * bs
        bv = blocks.get(boff)
        if bv is None:
            return None
        length = bv.length
        if length < bs and (file_size is None or length != min(bs, file_size - boff)):
            # A short block is the EOF block only if it runs exactly to
            # the known EOF; otherwise the file grew past it (or may have).
            return None
        # Every block before the last is full and an EOF block ends at
        # or past ``end``, so ``pos`` always lies inside this block.
        take_end = boff + length
        if take_end > end:
            take_end = end
        for s, e, v in bv.intervals:
            if s < pos:
                s = pos
            if e > take_end:
                e = take_end
            if s < e:
                if s == run_e and v == run_v:
                    run_e = e
                else:
                    if run_e > run_s:
                        intervals.append((run_s, run_e, run_v))
                    run_s, run_e, run_v = s, e, v
        if bv.data is not None:
            data_parts.append(bv.data[pos - boff : take_end - boff])
        pos = take_end
    if run_e > run_s:
        intervals.append((run_s, run_e, run_v))
    actual = pos - offset
    # A data-less block leaves the literal bytes short: no data at all.
    data = b"".join(data_parts)
    if not actual or len(data) != actual:
        data = None
    return ReadResult(offset=offset, size=actual, intervals=intervals, data=data)
