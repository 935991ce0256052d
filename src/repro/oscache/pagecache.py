"""The server's page cache: presence/eviction model for file pages.

Stores no data — file content identity lives in the local FS's interval
maps — only *which* 4 KiB pages are memory-resident, under a byte
budget with LRU eviction.  ``lookup`` returns the missing sub-ranges
that must come from disk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.util.stats import Counter, Tally


class PageCache(Tally):
    """Byte-budgeted LRU cache of (file_id, page_index) residency."""

    TALLY = ("page_hits", "page_misses", "evictions")

    def __init__(self, capacity_bytes: int, page_size: int = 4096) -> None:
        if capacity_bytes < page_size:
            raise ValueError("capacity must hold at least one page")
        if page_size < 512:
            raise ValueError("page_size must be >= 512")
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        self._pages: OrderedDict[tuple[Hashable, int], None] = OrderedDict()
        self.stats = self._tally(Counter())

    def __len__(self) -> int:
        return len(self._pages)

    def _page_range(self, offset: int, size: int) -> range:
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size if size else first - 1
        return range(first, last + 1)

    def lookup(self, file_id: Hashable, offset: int, size: int) -> list[tuple[int, int]]:
        """Probe pages covering ``[offset, offset+size)``.

        Promotes resident pages and returns the **missing byte ranges**
        (page-aligned, merged); an empty list means a full hit.  The
        hit and miss counts are booked once per call.
        """
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        pages = self._pages
        page_size = self.page_size
        missing: list[tuple[int, int]] = []
        hits = 0
        # `_page_range` written out: every file-system read probes here.
        first = offset // page_size
        span = range(first, (offset + size - 1) // page_size + 1 if size else first)
        for page in span:
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)
                hits += 1
            else:
                start = page * page_size
                if missing and missing[-1][0] + missing[-1][1] == start:
                    missing[-1] = (missing[-1][0], missing[-1][1] + page_size)
                else:
                    missing.append((start, page_size))
        if hits:
            self._n_page_hits += hits
        if hits < len(span):
            self._n_page_misses += len(span) - hits
        return missing

    def contains(self, file_id: Hashable, offset: int, size: int) -> bool:
        """Non-promoting residency check for the full range."""
        return all(
            (file_id, page) in self._pages for page in self._page_range(offset, size)
        )

    def insert(self, file_id: Hashable, offset: int, size: int) -> int:
        """Make all pages covering the range resident; returns number of
        pages evicted to fit."""
        pages = self._pages
        capacity = self.capacity_pages
        evicted = 0
        for page in self._page_range(offset, size):
            key = (file_id, page)
            if key in pages:
                pages.move_to_end(key)
            else:
                pages[key] = None
                # At most one page over: the cache was within capacity.
                if len(pages) > capacity:
                    pages.popitem(last=False)
                    evicted += 1
        self._n_evictions += evicted
        return evicted

    def invalidate(self, file_id: Hashable, offset: int, size: int) -> None:
        """Drop residency for pages covering the range."""
        for page in self._page_range(offset, size):
            self._pages.pop((file_id, page), None)

    def invalidate_file(self, file_id: Hashable) -> None:
        """Drop every page of *file_id* (O(resident pages))."""
        doomed = [k for k in self._pages if k[0] == file_id]
        for k in doomed:
            del self._pages[k]

    def clear(self) -> None:
        self._pages.clear()
