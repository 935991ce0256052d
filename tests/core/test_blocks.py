"""Tests for IMCa block arithmetic and block value splitting/assembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import BlockMapper, BlockValue, assemble_blocks, split_blocks
from repro.core.config import IMCaConfig
from repro.localfs.types import ReadResult
from repro.memcached.slabs import PAGE_SIZE
from repro.util import KiB


def _assemble(m, blocks, offset, size, file_size=None):
    """``assemble_blocks`` over a ``{block offset: value}`` map: its
    blocks are the value of each covering block in order, None where
    the map has none."""
    cover = [blocks.get(m.block_offset(i)) for i in m.cover(offset, size)]
    return assemble_blocks(m, cover, offset, size, file_size=file_size)


def test_cover_basics():
    m = BlockMapper(2 * KiB)
    assert list(m.cover(0, 1)) == [0]
    assert list(m.cover(0, 2 * KiB)) == [0]
    assert list(m.cover(0, 2 * KiB + 1)) == [0, 1]
    assert list(m.cover(2 * KiB - 1, 2)) == [0, 1]  # straddles boundary
    assert list(m.cover(5 * KiB, 0)) == []


def test_align_fig3_extra_bytes():
    """Fig 3: unaligned requests move extra data."""
    m = BlockMapper(2 * KiB)
    assert m.align(0, 2 * KiB) == (0, 2 * KiB)  # aligned: no extra
    assert m.align(100, 100) == (0, 2 * KiB)
    assert m.align(2 * KiB - 50, 100) == (0, 4 * KiB)
    assert m.extra_bytes(0, 2 * KiB) == 0
    assert m.extra_bytes(100, 100) == 2 * KiB - 100


def test_one_byte_read_fetches_full_block():
    """§5.3: 'even for a Read operation of 1 byte, the client needs to
    fetch a complete block of data from the MCDs'."""
    m = BlockMapper(256)
    assert m.align(1000, 1) == (768, 256)


def test_mapper_validation():
    with pytest.raises(ValueError):
        BlockMapper(0)
    m = BlockMapper(1024)
    with pytest.raises(ValueError):
        m.cover(-1, 5)


def test_config_validation():
    IMCaConfig(block_size=256)
    with pytest.raises(ValueError):
        IMCaConfig(block_size=0)
    with pytest.raises(ValueError):
        IMCaConfig(block_size=PAGE_SIZE + 1)  # memcached 1MB ceiling
    IMCaConfig(selector="ketama")  # now a valid §7 future-work option
    with pytest.raises(ValueError):
        IMCaConfig(selector="rendezvous")


@given(
    st.sampled_from([256, 2048, 8192]),
    st.integers(0, 100_000),
    st.integers(1, 50_000),
)
def test_align_covers_request(block_size, offset, size):
    m = BlockMapper(block_size)
    aoff, asize = m.align(offset, size)
    assert aoff <= offset
    assert aoff + asize >= offset + size
    assert aoff % block_size == 0
    assert asize % block_size == 0
    # Minimal: shrinking by one block would lose coverage.
    assert aoff + block_size > offset or asize == 0
    assert aoff + asize - block_size < offset + size


@given(st.integers(0, 1_000_000))
def test_block_index_offset_roundtrip(offset):
    m = BlockMapper(2048)
    idx = m.block_index(offset)
    assert m.block_offset(idx) <= offset < m.block_offset(idx + 1)


def _result(offset, size, version=1, with_data=True):
    data = bytes((version + i) % 256 for i in range(size)) if with_data else None
    return ReadResult(
        offset=offset,
        size=size,
        intervals=[(offset, offset + size, version)],
        data=data,
    )


def test_split_blocks_partition():
    m = BlockMapper(1024)
    r = _result(0, 4096)
    blocks = split_blocks(m, r, "/f")
    assert [b.block_offset for b in blocks] == [0, 1024, 2048, 3072]
    assert all(b.length == 1024 for b in blocks)
    assert b"".join(b.data for b in blocks) == r.data


def test_split_blocks_short_tail():
    m = BlockMapper(1024)
    r = _result(0, 2500)  # EOF mid-block
    blocks = split_blocks(m, r, "/f")
    assert [b.length for b in blocks] == [1024, 1024, 452]


def test_assemble_exact_roundtrip():
    m = BlockMapper(1024)
    r = _result(0, 8192, version=3)
    blocks = {b.block_offset: b for b in split_blocks(m, r, "/f")}
    got = _assemble(m, blocks, 100, 3000)
    assert got is not None
    assert got.size == 3000
    assert got.data == r.data[100:3100]
    assert got.intervals == [(100, 3100, 3)]


def test_assemble_missing_block_is_none():
    m = BlockMapper(1024)
    r = _result(0, 4096)
    blocks = {b.block_offset: b for b in split_blocks(m, r, "/f")}
    del blocks[1024]
    assert _assemble(m, blocks, 0, 4096) is None


def test_assemble_short_block_is_a_miss():
    """A short block was EOF at caching time, but the file may have
    grown since (without the block being re-pushed): serving it could
    truncate a read, so assembly must refuse it."""
    m = BlockMapper(1024)
    r = _result(0, 2500)
    blocks = {b.block_offset: b for b in split_blocks(m, r, "/f")}
    assert _assemble(m, blocks, 2000, 2000) is None
    # Full blocks before the short tail remain servable.
    got = _assemble(m, blocks, 0, 2048)
    assert got is not None and got.size == 2048


@given(
    st.integers(1, 8) , st.integers(0, 6000), st.integers(1, 4000),
)
def test_assemble_matches_source(blocks_scale, offset, size):
    m = BlockMapper(512 * blocks_scale)
    full = _result(0, 8192, version=5)
    blocks = {b.block_offset: b for b in split_blocks(m, full, "/f")}
    got = _assemble(m, blocks, offset, size)
    block_size = 512 * blocks_scale
    covers_short_or_missing = offset + size > (8192 // block_size) * block_size
    if covers_short_or_missing:
        # The request touches the (possibly short) tail block or runs
        # past EOF: the conservative answer is a miss; a non-None result
        # must still carry exactly the right bytes.
        if got is not None:
            expect = min(size, max(0, 8192 - offset))
            assert got.size <= expect
            assert got.data == full.data[offset : offset + got.size]
        return
    assert got is not None
    assert got.size == size
    assert got.data == full.data[offset : offset + size]


# -- assemble_blocks against a byte-by-byte oracle ---------------------------
def _oracle(bs, blocks, offset, size, file_size):
    """What a read of ``[offset, offset+size)`` must return, worked out
    one byte at a time from the cached blocks."""
    if file_size is not None:
        if offset >= file_size:
            return ReadResult(offset=offset, size=0)
        size = min(size, file_size - offset)
    versions, literal = {}, {}
    have_data = True
    for idx in range(offset // bs, (offset + size + bs - 1) // bs if size else 0):
        bv = blocks.get(idx * bs)
        if bv is None:
            return None
        if bv.length < bs:
            # Short: servable only as the EOF block of a file whose size
            # is known, and only if it runs exactly to that EOF.
            if file_size is None or bv.block_offset + bv.length != file_size:
                return None
        if bv.data is None:
            have_data = False
        for pos in range(bv.block_offset, bv.block_offset + bv.length):
            versions[pos] = next((v for s, e, v in bv.intervals if s <= pos < e), None)
            if bv.data is not None:
                literal[pos] = bv.data[pos - bv.block_offset]
    want = range(offset, offset + size)
    assert all(pos in versions for pos in want)
    intervals = []
    for pos in want:
        v = versions[pos]
        if v is None:
            continue
        if intervals and intervals[-1][1] == pos and intervals[-1][2] == v:
            intervals[-1] = (intervals[-1][0], pos + 1, v)
        else:
            intervals.append((pos, pos + 1, v))
    data = bytes(literal[pos] for pos in want) if have_data and size else None
    return ReadResult(offset=offset, size=size, intervals=intervals, data=data)


@st.composite
def _cached_file(draw):
    bs = draw(st.sampled_from([4, 8, 16]))
    true_size = draw(st.integers(1, 6 * bs))
    blocks = {}
    for boff in range(0, true_size, bs):
        fate = draw(st.sampled_from(["ok", "ok", "ok", "ok", "absent", "stale"]))
        if fate == "absent":
            continue  # a gap
        length = min(bs, true_size - boff)
        if fate == "stale":
            length = draw(st.integers(0, bs - 1))  # short: the file grew past it
        # Sorted, disjoint written pieces with holes between some of them;
        # adjacent pieces may carry the same version.
        cuts = sorted(draw(st.sets(st.integers(0, length), max_size=4)) | {0, length})
        intervals = [
            (boff + a, boff + b, v)
            for a, b in zip(cuts, cuts[1:])
            if (v := draw(st.sampled_from([None, 1, 1, 2, 3]))) is not None
        ]
        data = bytes(draw(st.integers(0, 255)) for _ in range(length))
        if draw(st.integers(0, 5)) == 0:
            data = None  # a data-less (interval-only) block
        blocks[boff] = BlockValue("/f", boff, length, intervals, data)
    file_size = draw(st.sampled_from([None, true_size, true_size, true_size + bs, bs]))
    offset = draw(st.integers(0, true_size + bs))
    size = draw(st.integers(0, true_size + 2 * bs))
    return bs, blocks, offset, size, file_size


@settings(max_examples=400, deadline=None)
@given(_cached_file())
def test_assemble_blocks_matches_the_byte_oracle(case):
    bs, blocks, offset, size, file_size = case
    got = _assemble(BlockMapper(bs), blocks, offset, size, file_size=file_size)
    assert got == _oracle(bs, blocks, offset, size, file_size)


def reference_split_blocks(mapper, result, path):
    """``split_blocks`` before ``block_offset`` and the ``max``/``min``
    clips were written out: every block filters every interval; kept
    as the reference."""
    out = []
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


@st.composite
def multi_interval_results(draw):
    """A read of 0–6 blocks, its start and end aligned or not (an
    EOF-short last block), whose sorted, disjoint intervals leave holes
    and may cross block boundaries."""
    bs = draw(st.sampled_from([512, 1024, 2048]))
    offset = draw(st.integers(0, 4)) * bs + draw(st.sampled_from([0, 0, 1, bs // 3]))
    size = draw(st.sampled_from([0, 1, bs, 3 * bs, 6 * bs])) + draw(st.integers(-1, bs))
    size = max(0, size)
    end = offset + size
    cuts = sorted(draw(st.sets(st.integers(offset, end), max_size=14)))
    intervals = []
    for s, e in zip(cuts, cuts[1:]):
        # Each gap between cuts is an interval or a hole.
        if draw(st.booleans()):
            intervals.append((s, e, draw(st.integers(1, 9))))
    data = bytes(range(256)) * (size // 256 + 1)
    data = data[:size] if draw(st.booleans()) else None
    return BlockMapper(bs), ReadResult(offset=offset, size=size, intervals=intervals, data=data)


@settings(max_examples=300, deadline=None)
@given(case=multi_interval_results())
def test_split_blocks_is_the_per_block_filter(case):
    mapper, result = case
    assert split_blocks(mapper, result, "/f") == reference_split_blocks(mapper, result, "/f")


def test_split_blocks_hands_a_spanning_interval_to_every_block():
    m = BlockMapper(1024)
    r = ReadResult(offset=0, size=3000, intervals=[(100, 200, 1), (900, 2500, 2)])
    assert [b.intervals for b in split_blocks(m, r, "/f")] == [
        [(100, 200, 1), (900, 1024, 2)], [(1024, 2048, 2)], [(2048, 2500, 2)],
    ]
