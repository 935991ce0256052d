"""performance/io-cache translator: a client-side data cache with
timeout-based revalidation.

This is the client cache the paper's motivation argues *against*
(§1/§3): "client side caches introduce cache coherency issues when
there is sharing of data between multiple clients.  NFS does not offer
strict cache coherency and uses coarse timeouts to deal with the
issue."  GlusterFS's io-cache works the same way — pages are served
locally until ``cache_timeout`` expires, then revalidated by comparing
the file's mtime.  Under read/write sharing it can return **stale**
data within the timeout window, which IMCa's server-coherent cache bank
never does (the ``ablation-client-cache`` experiment measures exactly
this trade).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.gluster.xlator import Xlator
from repro.localfs.types import ReadResult, slice_result
from repro.oscache.lru import LruCache
from repro.sim.process import departure
from repro.util.stats import Counter
from repro.util.units import KiB, MiB


@dataclass
class _FileState:
    """Validation state for one cached file."""

    mtime: float = -1.0
    validated_at: float = -1.0
    pages: set = field(default_factory=set)


class IoCacheXlator(Xlator):
    """Client-side page cache with mtime revalidation."""

    def __init__(
        self,
        sim,
        capacity: int = 64 * MiB,
        page_size: int = 4 * KiB,
        cache_timeout: float = 1.0,
    ) -> None:
        super().__init__("io-cache")
        if page_size < 512:
            raise ValueError("page_size must be >= 512")
        if cache_timeout < 0:
            raise ValueError("cache_timeout must be >= 0")
        self.sim = sim
        self.page_size = page_size
        self.cache_timeout = cache_timeout
        self._pages: LruCache = LruCache(max(1, capacity // page_size))
        self._files: dict[str, _FileState] = {}
        self.stats = Counter()

    # -- invalidation ----------------------------------------------------------
    def _drop_file(self, path: str) -> None:
        state = self._files.pop(path, None)
        if state:
            for page in state.pages:
                self._pages.remove((path, page))

    def _revalidate(self, path: str) -> Generator:
        """Stat the server if the validation window expired; drop the
        file's pages when its mtime moved."""
        state = self._files.setdefault(path, _FileState())
        if departure(self.sim) - state.validated_at < self.cache_timeout:
            return
        self.stats.inc("revalidations")
        fresh = yield from self._down().stat(path)
        if fresh.mtime != state.mtime:
            self.stats.inc("invalidations")
            self._drop_file(path)
            state = self._files.setdefault(path, _FileState())
            state.mtime = fresh.mtime
        state.validated_at = self.sim.now

    # -- fops --------------------------------------------------------------------
    def read(self, path: str, offset: int, size: int) -> Generator:
        if size <= 0:
            result = yield from self._down().read(path, offset, size)
            return result
        yield from self._revalidate(path)
        state = self._files.setdefault(path, _FileState())
        ps = self.page_size
        first, last = offset // ps, (offset + size - 1) // ps
        parts: list[ReadResult] = []
        pos = offset
        end = offset + size
        for page in range(first, last + 1):
            frag: Optional[ReadResult] = self._pages.get((path, page))
            if frag is None:
                self.stats.inc("misses")
                fetched = yield from self._down().read(path, page * ps, ps)
                frag = fetched
                evicted = self._pages.put((path, page), frag)
                state.pages.add(page)
                for (epath, epage), _ in evicted:
                    est = self._files.get(epath)
                    if est:
                        est.pages.discard(epage)
            else:
                self.stats.inc("hits")
            take_end = min(end, frag.offset + frag.size)
            if take_end <= pos:
                break  # EOF
            parts.append(slice_result(frag, pos, take_end - pos))
            pos = take_end
            if frag.size < ps:
                break  # short page = EOF
        intervals = [iv for p in parts for iv in p.intervals]
        data = None
        if parts and all(p.data is not None for p in parts):
            data = b"".join(p.data for p in parts)  # type: ignore[misc]
        return ReadResult(offset=offset, size=pos - offset, intervals=intervals, data=data)

    def write(self, path: str, offset: int, size: int, data=None) -> Generator:
        version = yield from self._down().write(path, offset, size, data)
        # Our own writes invalidate our cached pages for the file and
        # force a revalidation before the next read.
        self._drop_file(path)
        return version

    def truncate(self, path: str, length: int) -> Generator:
        result = yield from self._down().truncate(path, length)
        self._drop_file(path)
        return result

    def unlink(self, path: str) -> Generator:
        result = yield from self._down().unlink(path)
        self._drop_file(path)
        return result

    def flush(self, path: str) -> Generator:
        result = yield from self._down().flush(path)
        self._drop_file(path)
        return result
