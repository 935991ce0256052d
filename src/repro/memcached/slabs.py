"""Slab-based memory allocator, as in memcached.

"Memory management is based on slab cache allocation to reduce
excessive fragmentation" (paper §2.2).  Memory is carved into 1 MiB
*pages*, each assigned to a *slab class* of fixed chunk size; chunk
sizes grow geometrically.  An item occupies one chunk of the smallest
class that fits it, so the 1 MiB page size also caps the largest
storable item — the origin of memcached's 1 MB value limit that bounds
IMCa's block size (§4.3.1).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.util.stats import Counter, Tally
from repro.util.units import MiB


#: Size of one slab page (and therefore the largest chunk).
PAGE_SIZE = 1 * MiB


@dataclass(slots=True)
class SlabClass:
    """One chunk-size class."""

    index: int
    chunk_size: int
    pages: int = 0
    free_chunks: int = 0
    used_chunks: int = 0

    @property
    def chunks_per_page(self) -> int:
        return PAGE_SIZE // self.chunk_size


class SlabAllocator(Tally):
    """Page/chunk accounting for the item store.

    Tracks only sizes, not addresses — the engine stores Python values;
    what matters for fidelity is *when memory runs out and eviction
    begins*, which depends on chunk rounding and page assignment
    exactly as modelled here.
    """

    TALLY = ("pages_allocated", "alloc_failures")

    def __init__(
        self,
        mem_limit: int,
        growth_factor: float = 1.25,
        min_chunk: int = 96,
    ) -> None:
        if mem_limit < PAGE_SIZE:
            raise ValueError("mem_limit must hold at least one page")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must be > 1")
        self.mem_limit = mem_limit
        self.max_pages = mem_limit // PAGE_SIZE
        self.classes: list[SlabClass] = []
        size = min_chunk
        idx = 0
        while size < PAGE_SIZE:
            self.classes.append(SlabClass(index=idx, chunk_size=size))
            size = int(size * growth_factor)
            # memcached aligns chunk sizes to 8 bytes.
            size = (size + 7) & ~7
            idx += 1
        self.classes.append(SlabClass(index=idx, chunk_size=PAGE_SIZE))
        #: Ascending chunk sizes, for :meth:`class_for`'s bisect (and the
        #: engine's store loop, which places its items itself).
        self.chunk_sizes = [c.chunk_size for c in self.classes]
        self.total_pages = 0
        self.stats = self._tally(Counter())

    def class_for(self, size: int) -> SlabClass | None:
        """Smallest class whose chunk fits *size* (None if > page)."""
        if size > PAGE_SIZE:
            return None
        return self.classes[bisect_left(self.chunk_sizes, size)]

    def alloc_in(self, cls: SlabClass) -> bool:
        """Take one chunk of *cls* (the caller's :meth:`class_for` pick).

        False when memory is exhausted and the caller must evict from
        that class (memcached's behaviour: eviction is per-class, no
        page reassignment).
        """
        if cls.free_chunks == 0:
            if self.total_pages < self.max_pages:
                self.total_pages += 1
                cls.pages += 1
                cls.free_chunks += cls.chunks_per_page
                self._n_pages_allocated += 1
            else:
                self._n_alloc_failures += 1
                return False
        cls.free_chunks -= 1
        cls.used_chunks += 1
        return True

    def free(self, cls: SlabClass) -> None:
        """Return one chunk of *cls* to its free list."""
        if cls.used_chunks <= 0:
            raise RuntimeError(f"double free in slab class {cls.index}")
        cls.used_chunks -= 1
        cls.free_chunks += 1

    @property
    def bytes_allocated(self) -> int:
        return self.total_pages * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SlabAllocator {self.total_pages}/{self.max_pages} pages, "
            f"{len(self.classes)} classes>"
        )
