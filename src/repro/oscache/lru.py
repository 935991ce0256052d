"""A generic entry-count-bounded LRU cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator

from repro.util.stats import Counter, Tally


class LruCache(Tally):
    """Least-recently-used mapping with a maximum entry count.

    Used for the server's inode/dentry (metadata) cache and the Lustre
    client cache directory.  ``get`` promotes; ``put`` inserts/updates
    and evicts the coldest entry past capacity.
    """

    TALLY = ("hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._map: OrderedDict[Hashable, Any] = OrderedDict()
        self.stats = self._tally(Counter())

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._map

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._map)

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._map[key]
        except KeyError:
            self._n_misses += 1
            return default
        self._map.move_to_end(key)
        self._n_hits += 1
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Read without promoting (no stats)."""
        return self._map.get(key, default)

    def put(self, key: Hashable, value: Any) -> list[tuple[Hashable, Any]]:
        """Insert/update; returns the evicted ``(key, value)`` pairs."""
        if key in self._map:
            self._map.move_to_end(key)
        self._map[key] = value
        evicted = []
        while len(self._map) > self.capacity:
            evicted.append(self._map.popitem(last=False))
            self._n_evictions += 1
        return evicted

    def remove(self, key: Hashable) -> bool:
        """Drop *key*; returns whether it was present."""
        if key in self._map:
            del self._map[key]
            return True
        return False

    def clear(self) -> None:
        self._map.clear()
