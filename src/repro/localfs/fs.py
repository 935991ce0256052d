"""A POSIX-ish local file system over a block device and page cache.

This is the substrate under every server in the reproduction: the
GlusterFS posix brick, each Lustre OST/MDT, and the NFS exporter.  It
provides timed, generator-based operations (``yield from fs.read(...)``)
whose device time comes from the disk model through the page cache,
plus exact content identity through per-file interval version maps.

Simplifications (documented in DESIGN.md): a flat absolute-path
namespace with implicit directories; metadata persistence is modelled
as one inode-table block write per mutation; no journaling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.localfs.types import Inode, ReadResult, StatBuf
from repro.obs.trace import NULL_TRACER
from repro.oscache.lru import LruCache
from repro.oscache.pagecache import PageCache
from repro.util.stats import Counter, Tally
from repro.util.units import KiB, MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class FsError(Exception):
    """POSIX-style failure (ENOENT, EEXIST...)."""

    def __init__(self, errno: str, path: str) -> None:
        super().__init__(f"{errno}: {path}")
        self.errno = errno
        self.path = path


#: Size of the on-disk extent allocation unit.
CHUNK_SIZE = 1 * MiB
#: Inode-table block size (metadata reads/writes).
META_IO_SIZE = 4 * KiB
#: Files larger than this stop carrying literal bytes (content identity
#: continues to be exact through the interval maps).
STORE_DATA_LIMIT = 16 * MiB


class LocalFS(Tally):
    """One mounted local file system instance."""

    TALLY = ("meta_hits", "meta_misses", "creates", "stats", "reads", "writes", "fsyncs", "unlinks")

    def __init__(
        self,
        sim: "Simulator",
        device,
        page_cache: PageCache,
        meta_cache_entries: int = 1 << 20,
        store_data_limit: int = STORE_DATA_LIMIT,
        write_through: bool = False,
        name: str = "localfs",
        tracer=NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.device = device
        self.page_cache = page_cache
        self.meta_cache = LruCache(meta_cache_entries)
        self.store_data_limit = store_data_limit
        #: write-back by default: a write returns once it is in the page
        #: cache; the device reservation still happens (flusher threads
        #: consume real disk time) but off the caller's critical path.
        self.write_through = write_through
        self.name = name
        self._files: dict[str, Inode] = {}
        self._next_ino = 1
        self._write_seq = 0
        #: Device allocation pointer: metadata area first 1 GiB, data after.
        self._meta_alloc = 0
        self._data_alloc = 1 << 30
        #: ino -> absolute time its last write-back reaches the device.
        self._flush_times: dict[int, float] = {}
        self.stats = self._tally(Counter())
        self.tracer = tracer

    # -- helpers -----------------------------------------------------------
    def _inode(self, path: str) -> Inode:
        try:
            return self._files[path]
        except KeyError:
            raise FsError("ENOENT", path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def next_version(self) -> int:
        self._write_seq += 1
        return self._write_seq

    def _inode_block(self, ino: int) -> int:
        """Device offset of the inode's table block."""
        return (ino * META_IO_SIZE) % (1 << 30)

    def _chunk_base(self, inode: Inode, chunk_idx: int) -> int:
        base = inode.chunks.get(chunk_idx)
        if base is None:
            base = self._data_alloc
            self._data_alloc += CHUNK_SIZE
            if self._data_alloc > self.device.capacity:
                raise FsError("ENOSPC", "device full")
            inode.chunks[chunk_idx] = base
        return base

    def _device_runs(self, inode: Inode, offset: int, size: int) -> list[tuple[int, int]]:
        """Map a file range to device (offset, length) runs via extents."""
        runs: list[tuple[int, int]] = []
        pos, end = offset, offset + size
        while pos < end:
            chunk = pos // CHUNK_SIZE
            within = pos - chunk * CHUNK_SIZE
            take = min(CHUNK_SIZE - within, end - pos)
            dev_off = self._chunk_base(inode, chunk) + within
            if runs and runs[-1][0] + runs[-1][1] == dev_off:
                runs[-1] = (runs[-1][0], runs[-1][1] + take)
            else:
                runs.append((dev_off, take))
            pos += take
        return runs

    def _meta_access(self, path: str, ino: int, write: bool) -> float:
        """Timed metadata access: cache hit is free, miss/update touches
        the inode table block on the device.  Returns completion time."""
        if write:
            self.meta_cache.put(path, True)
            return self.device.access_time(self._inode_block(ino), META_IO_SIZE, write=True)
        if self.meta_cache.get(path) is not None:
            self._n_meta_hits += 1
            return self.sim._now
        self._n_meta_misses += 1
        done = self.device.access_time(self._inode_block(ino), META_IO_SIZE)
        self.meta_cache.put(path, True)
        return done

    def _wait(self, until: float, op: str) -> Generator:
        """Sleep until *until* (ahead of the clock; callers check) under
        a ``disk`` span when tracing: on the float ``now + (until - now)``,
        the instant and entry ``sim.timeout(until - now)`` would have had."""
        now = self.sim._now
        if self.tracer.enabled:
            with self.tracer.span("disk", f"{self.name}.{op}"):
                yield now + (until - now)
        else:
            yield now + (until - now)

    # -- operations ---------------------------------------------------------
    def create(self, path: str, mode: int = 0o100644) -> Generator:
        """Create an empty regular file; returns its :class:`StatBuf`."""
        if path in self._files:
            raise FsError("EEXIST", path)
        ino = self._next_ino
        self._next_ino += 1
        now = self.sim._now
        stat = StatBuf(ino=ino, mode=mode, atime=now, mtime=now, ctime=now)
        self._files[path] = Inode(stat=stat)
        self._n_creates += 1
        done = self._meta_access(path, ino, write=True)
        if done > self.sim._now:
            yield from self._wait(done, "create")
        return stat.copy()

    def lookup(self, path: str) -> Generator:
        """Timed existence + stat fetch (the namei walk)."""
        inode = self._inode(path)
        done = self._meta_access(path, inode.stat.ino, write=False)
        if done > self.sim._now:
            yield from self._wait(done, "lookup")
        return inode.stat.copy()

    def stat(self, path: str) -> Generator:
        """POSIX stat: metadata read (the lookup's generator)."""
        self._n_stats += 1
        return self.lookup(path)

    def read(self, path: str, offset: int, size: int) -> Generator:
        """Ranged read.  Returns a :class:`ReadResult`; short at EOF."""
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        inode = self._inode(path)
        self._n_reads += 1
        stat = inode.stat
        actual = max(0, min(size, stat.size - offset))
        if actual == 0:
            return ReadResult(offset=offset, size=0)
        missing = self.page_cache.lookup(stat.ino, offset, actual)
        now = done = self.sim._now
        if missing:
            for m_off, m_len in missing:
                # Clamp page-aligned miss ranges to the file's extent space.
                for dev_off, length in self._device_runs(inode, m_off, m_len):
                    done = max(done, self.device.access_time(dev_off, length))
            first = missing[0][0]
            self.page_cache.insert(stat.ino, first, missing[-1][0] + missing[-1][1] - first)
        if done > now:
            # The disk wake resumes this frame, not a ``_wait`` under it.
            if self.tracer.enabled:
                yield from self._wait(done, "read")
            else:
                yield now + (done - now)
            now = self.sim._now
        stat.atime = now
        data: Optional[bytes] = None
        if inode.data is not None:
            # One copy: a slice of the bytearray would be a second.
            data = bytes(memoryview(inode.data)[offset : offset + actual])
        return ReadResult(
            offset=offset,
            size=actual,
            intervals=inode.versions.read(offset, offset + actual),
            data=data,
        )

    def write(
        self,
        path: str,
        offset: int,
        size: int,
        data: Optional[bytes] = None,
        version: Optional[int] = None,
    ) -> Generator:
        """Write-through ranged write; returns the assigned version.

        *data* is optional — large benchmark files track content only
        through versions.  When given, ``len(data)`` must equal *size*.
        """
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        if data is not None and len(data) != size:
            raise ValueError("data length mismatch")
        inode = self._inode(path)
        self._n_writes += 1
        if version is None:
            version = self.next_version()
        if size:
            inode.versions.write(offset, offset + size, version)
        # Literal bytes while the file is small.
        if inode.data is not None:
            if offset + size <= self.store_data_limit:
                if len(inode.data) < offset + size:
                    inode.data.extend(b"\0" * (offset + size - len(inode.data)))
                if data is not None:
                    inode.data[offset : offset + size] = data
                else:
                    # Synthesised content: deterministic fill derived from
                    # the version (tiled pattern; cheap for large writes).
                    pattern = bytes(((version + i) & 0xFF) for i in range(256))
                    reps = size // 256 + 1
                    inode.data[offset : offset + size] = (pattern * reps)[:size]
            else:
                inode.data = None  # grew past the limit: drop literal bytes

        done = self.sim._now
        if size:
            self.page_cache.insert(inode.stat.ino, offset, size)
            for dev_off, length in self._device_runs(inode, offset, size):
                flushed = self.device.access_time(dev_off, length, write=True)
                # Durability point for fsync (the flusher's completion).
                self._flush_times[inode.stat.ino] = max(
                    self._flush_times.get(inode.stat.ino, 0.0), flushed
                )
                if self.write_through:
                    done = max(done, flushed)
        # Size/mtime updates ride the journal (batched, off the critical
        # path); only namespace mutations pay a synchronous inode write.
        inode.stat.size = max(inode.stat.size, offset + size)
        inode.stat.mtime = self.sim._now
        self.meta_cache.put(path, True)
        if done > self.sim._now:
            yield from self._wait(done, "write")
        return version

    def fsync(self, path: str) -> Generator:
        """Block until every write-back for *path* has hit the device."""
        inode = self._inode(path)
        self._n_fsyncs += 1
        flushed = self._flush_times.get(inode.stat.ino, 0.0)
        if flushed > self.sim._now:
            yield from self._wait(flushed, "fsync")

    def truncate(self, path: str, length: int) -> Generator:
        """Truncate/extend to *length* bytes."""
        if length < 0:
            raise ValueError("negative length")
        inode = self._inode(path)
        if length < inode.stat.size:
            self.page_cache.invalidate(inode.stat.ino, length, inode.stat.size - length)
            if inode.data is not None:
                del inode.data[length:]
            # Content above the cut is gone; keep versions below it only.
            kept = inode.versions.read(0, length)
            new_map = type(inode.versions)()
            for s, e, v in kept:
                if v:
                    new_map.write(s, e, v)
            inode.versions = new_map
        inode.stat.size = length
        inode.stat.mtime = self.sim._now
        done = self._meta_access(path, inode.stat.ino, write=True)
        if done > self.sim._now:
            yield from self._wait(done, "truncate")
        return inode.stat.copy()

    def unlink(self, path: str) -> Generator:
        """Remove a file; its pages and metadata are invalidated."""
        inode = self._inode(path)
        self._n_unlinks += 1
        self.page_cache.invalidate_file(inode.stat.ino)
        self.meta_cache.remove(path)
        del self._files[path]
        done = self.device.access_time(self._inode_block(inode.stat.ino), META_IO_SIZE, write=True)
        if done > self.sim._now:
            yield from self._wait(done, "unlink")
