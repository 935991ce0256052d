"""IMCa's memcached key schema (§4.2, §4.3.2).

* stat entries: absolute pathname with ``:stat`` appended;
* data blocks: absolute pathname with the block's byte offset appended.

memcached caps keys at 250 bytes (UTF-8 bytes, not characters); paths
too long to form valid keys are simply not cached (CMCache forwards,
SMCache skips the push) — the transparent degradation §4.4 requires.
"""

from __future__ import annotations

from typing import Optional

from repro.memcached.engine import MAX_KEY_LEN, key_nbytes

STAT_SUFFIX = ":stat"


def stat_key(path: str) -> Optional[str]:
    """``/abs/path:stat`` or None when it would exceed the key limit."""
    key = path + STAT_SUFFIX
    return key if key_nbytes(key) <= MAX_KEY_LEN else None


def data_key(path: str, block_offset: int) -> Optional[str]:
    """``/abs/path:<offset>`` or None when it would exceed the limit."""
    key = f"{path}:{block_offset}"
    return key if key_nbytes(key) <= MAX_KEY_LEN else None


def is_stat_key(key: str) -> bool:
    return key.endswith(STAT_SUFFIX)


class KeyCache:
    """Memoised key-string construction for the hot read/push paths.

    Every cached read names one data key per covering block (plus the
    stat key), and every SMCache push does the same on the server side;
    under a steady workload the same ``(path, block_offset)`` pairs
    recur millions of times.  This keeps one list of key strings per
    path, indexed by block, so the hot path takes a slice of it
    (:meth:`data_keys`: a read's or push's run of blocks, or a purge's
    blocks from 0 up) instead of formatting an f-string.  Each key is
    held once: reads, pushes, fills and purges all slice the same
    list.  Semantics are identical to :func:`data_key` /
    :func:`stat_key`, including the ``None`` for overlong keys.

    A testbed builds one table for all its CMCaches and SMCaches
    (:func:`key_table`), so a key is minted once however many clients
    name it.

    Bounded: when more than ``max_paths`` distinct paths accumulate the
    cache resets (workloads touch a working set, so a full wipe is
    simpler and just as effective as LRU here).  The bound counts the
    whole testbed's paths.  4,096 holds Fig 5's paper-scale file set
    (4,096 files over 64 clients, no wipe) and twice the largest
    ``perf/`` working set (2,048 files); past it a wipe costs only the
    re-minting, and the table stays one per testbed rather than one per
    translator.  A wipe never disturbs a read in flight: :meth:`data_keys`
    hands out a copy.
    """

    __slots__ = ("max_paths", "block_size", "_blocks", "_stat")

    def __init__(self, max_paths: int = 4096, block_size: int = 2048) -> None:
        self.max_paths = max_paths
        #: The block size :meth:`data_keys` indexes blocks by.
        self.block_size = block_size
        #: path -> [key-or-None of block 0, block 1, ...], as far as a
        #: read, push or purge has reached.
        self._blocks: dict[str, list[Optional[str]]] = {}
        #: path -> stat key-or-None
        self._stat: dict[str, Optional[str]] = {}

    def data_keys(self, path: str, first: int, stop: int) -> list[Optional[str]]:
        """The data keys of blocks ``first .. stop - 1`` of *path*, in
        order: a slice of the path's key list, which grows to *stop*
        on first use."""
        keys = self._blocks.get(path)
        if keys is None:
            if len(self._blocks) >= self.max_paths:
                self._blocks.clear()
            keys = self._blocks[path] = []
        if len(keys) < stop:
            bs = self.block_size
            keys.extend([data_key(path, i * bs) for i in range(len(keys), stop)])
        return keys[first:stop]

    def data_key(self, path: str, block_offset: int) -> Optional[str]:
        """The data key at *block_offset*: an entry of the path's key
        list when it starts a block, else formatted afresh."""
        index, within = divmod(block_offset, self.block_size)
        if within:
            return data_key(path, block_offset)
        return self.data_keys(path, index, index + 1)[0]

    def stat_key(self, path: str) -> Optional[str]:
        try:
            return self._stat[path]
        except KeyError:
            if len(self._stat) >= self.max_paths:
                self._stat.clear()
            key = self._stat[path] = stat_key(path)
            return key


def key_table(keys: Optional[KeyCache], block_size: int) -> KeyCache:
    """A translator's key table: the testbed's shared *keys*, or, for a
    translator built on its own, a private one.  A shared table must
    index blocks by the translator's block size."""
    if keys is None:
        return KeyCache(block_size=block_size)
    if keys.block_size != block_size:
        raise ValueError(
            f"key table indexes {keys.block_size} B blocks, translator uses {block_size} B"
        )
    return keys


def parse_data_key(key: str) -> tuple[str, int]:
    """Inverse of :func:`data_key` (diagnostics/tests)."""
    path, _, off = key.rpartition(":")
    return path, int(off)
