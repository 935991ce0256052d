"""Key -> server distribution functions.

IMCa's default is libmemcache's CRC32 hash (§4.2, §5.1); the IOzone
throughput experiment (§5.5) replaces it with "a static modulo function
(round-robin) for distributing the data across the cache servers".
The paper's future work (§7) calls for "different hashing algorithms",
so the selector is pluggable.  A selector reads nothing but the key: a
data key names its block (``abspath:<block-offset>``), so the block's
ordinal is the key's offset suffix over the block size.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.util.crc32 import crc32, memcache_hash


class ServerSelector(Protocol):
    """Maps a key to a server index."""

    name: str

    def select(self, key: str, nservers: int) -> int:
        ...  # pragma: no cover


class Crc32Selector:
    """libmemcache default: fold CRC32 to 15 bits, modulo server count."""

    name = "crc32"

    def select(self, key: str, nservers: int) -> int:
        return memcache_hash(key) % nservers


class ModuloSelector:
    """Round-robin by block ordinal (the §5.5 striping distribution).

    A data key ``abspath:<block-offset>`` goes to its block's ordinal,
    ``offset // block_size``, modulo the server count; any other key
    (``:stat``) falls back to CRC32, so metadata entries still
    distribute.
    """

    name = "modulo"

    def __init__(self, block_size: int) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1: {block_size}")
        self.block_size = block_size

    def select(self, key: str, nservers: int) -> int:
        _, colon, offset = key.rpartition(":")
        if colon and offset.isdecimal():
            return int(offset) // self.block_size % nservers
        return memcache_hash(key) % nservers


class KetamaSelector:
    """Consistent hashing on a virtual-node ring (the §7 future-work
    "different hashing algorithms" direction).

    With modulo-style selection, growing the MCD array from N to N+1
    remaps ~N/(N+1) of all keys — a cluster-wide cold restart.  Ketama
    places each server at ``vnodes`` points of a 2^32 ring; adding a
    server moves only ~1/(N+1) of the keys.
    """

    name = "ketama"

    def __init__(self, vnodes: int = 160) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._rings: dict[int, tuple[list[int], list[int]]] = {}
        self._id_rings: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}

    def _ring_ids(self, ids: tuple[int, ...]) -> tuple[list[int], list[int]]:
        """The ring over an explicit set of *node ids*.

        Ring points are hashed from the node id — not the node's
        position in a membership list — so removing a node only removes
        its own points: every surviving node's points (and therefore
        every surviving assignment) stay exactly where they were.  The
        static case ``ids == (0..n-1)`` hashes the same strings as the
        historical positional ring, byte for byte.
        """
        ring = self._id_rings.get(ids)
        if ring is None:
            import hashlib

            points: list[tuple[int, int]] = []
            # As in the original ketama: each (server, replica) MD5
            # digest yields four 32-bit ring points — CRC32 alone
            # disperses too poorly for an even ring.
            for server in ids:
                for v in range((self.vnodes + 3) // 4):
                    digest = hashlib.md5(f"server-{server}:vnode-{v}".encode()).digest()
                    for part in range(4):
                        chunk = digest[part * 4 : part * 4 + 4]
                        points.append((int.from_bytes(chunk, "little"), server))
            points.sort()
            ring = ([h for h, _ in points], [s for _, s in points])
            self._id_rings[ids] = ring
        return ring

    def _ring(self, nservers: int) -> tuple[list[int], list[int]]:
        ring = self._rings.get(nservers)
        if ring is None:
            ring = self._ring_ids(tuple(range(nservers)))
            self._rings[nservers] = ring
        return ring

    def owner(self, key: str, ids: Sequence[int]) -> int:
        """The *node id* owning *key* among the live id set ``ids``.

        This is the elastic-membership entry point: callers pass the
        current members' stable ids and get back an id, so adds and
        removes never renumber the survivors.
        """
        ids = tuple(ids)
        if not ids:
            raise ValueError("owner() needs at least one live node id")
        if len(ids) == 1:
            return ids[0]
        hashes, owners = self._ring_ids(ids)
        h = crc32(key)
        from bisect import bisect_right

        idx = bisect_right(hashes, h)
        if idx == len(hashes):
            idx = 0
        return owners[idx]

    def select(self, key: str, nservers: int) -> int:
        if nservers == 1:
            return 0
        hashes, owners = self._ring(nservers)
        h = crc32(key)
        from bisect import bisect_right

        idx = bisect_right(hashes, h)
        if idx == len(hashes):
            idx = 0
        return owners[idx]


class ReplicatedSelector:
    """R-way replication on top of any base selector.

    Under skewed (Zipf) traffic the CRC32 map pins every hot
    ``abspath:stat`` key to a single daemon, so one MCD saturates while
    the rest idle.  Replication gives each key R *distinct* owners:

    * the **primary** is whatever the base selector picks, so R=1
      behaves byte-identically to the base;
    * the remaining replicas come from walking a ketama ring clockwise
      from the key's hash point, skipping servers already chosen.  The
      ring walk keeps replica sets stable when the array grows and
      spreads secondary ownership evenly.

    Readers pick one replica (round-robin / least-ejected, the client's
    job); writers and purges must fan out to *all* replicas — a purge
    that misses one replica leaves stale stat data live.
    """

    name = "replicated"

    def __init__(self, base: ServerSelector, replicas: int = 2, vnodes: int = 160) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1: {replicas}")
        self.base = base
        self.replicas = replicas
        self._ring = KetamaSelector(vnodes)

    def replicas_for(self, key: str, nservers: int) -> list[int]:
        """All owners of *key*, primary first; ``min(R, nservers)`` long."""
        primary = self.base.select(key, nservers)
        r = min(self.replicas, nservers)
        if r <= 1:
            return [primary]
        from bisect import bisect_right

        hashes, owners = self._ring._ring(nservers)
        out = [primary]
        i = bisect_right(hashes, crc32(key))
        n = len(hashes)
        # Every server owns ring points, so the walk always terminates.
        while len(out) < r:
            if i >= n:
                i = 0
            s = owners[i]
            if s not in out:
                out.append(s)
            i += 1
        return out


SELECTORS = {"crc32": Crc32Selector, "modulo": ModuloSelector, "ketama": KetamaSelector}


def selector(name: str, block_size: int = 2048) -> ServerSelector:
    """The selector *name*; ``modulo`` stripes blocks of *block_size*."""
    try:
        cls = SELECTORS[name]
    except KeyError:
        raise KeyError(f"unknown selector {name!r}; available: {sorted(SELECTORS)}") from None
    return cls(block_size) if cls is ModuloSelector else cls()
