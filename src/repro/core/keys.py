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

    Every cached read formats one data key per covering block (plus the
    stat key), and every SMCache push does the same on the server side;
    under a steady workload the same ``(path, block_offset)`` pairs
    recur millions of times.  This caches the formatted strings per
    path so the hot path does a dict probe instead of an f-string
    format.  Semantics are identical to :func:`data_key` /
    :func:`stat_key`, including the ``None`` for overlong keys.

    Bounded: when more than ``max_paths`` distinct paths accumulate the
    cache resets (workloads touch a working set, so a full wipe is
    simpler and just as effective as LRU here).
    """

    __slots__ = ("max_paths", "_data", "_stat")

    def __init__(self, max_paths: int = 4096) -> None:
        self.max_paths = max_paths
        #: path -> {block_offset: key-or-None}
        self._data: dict[str, dict[int, Optional[str]]] = {}
        #: path -> stat key-or-None
        self._stat: dict[str, Optional[str]] = {}

    def data_key(self, path: str, block_offset: int) -> Optional[str]:
        per_path = self._data.get(path)
        if per_path is None:
            if len(self._data) >= self.max_paths:
                self._data.clear()
            per_path = self._data[path] = {}
        try:
            return per_path[block_offset]
        except KeyError:
            key = per_path[block_offset] = data_key(path, block_offset)
            return key

    def stat_key(self, path: str) -> Optional[str]:
        try:
            return self._stat[path]
        except KeyError:
            if len(self._stat) >= self.max_paths:
                self._stat.clear()
            key = self._stat[path] = stat_key(path)
            return key


def parse_data_key(key: str) -> tuple[str, int]:
    """Inverse of :func:`data_key` (diagnostics/tests)."""
    path, _, off = key.rpartition(":")
    return path, int(off)
