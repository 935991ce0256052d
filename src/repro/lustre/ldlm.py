"""A distributed-lock-manager model (whole-file extent locks).

Per the paper's framing (§1): "Lustre ... uses locking with the
metadata server acting as a lock manager to implement client cache
coherency.  Writes are flushed before locks are released.  With a large
number of clients, the overhead of maintaining locks and keeping the
client caches coherent increases."

Locks are per file, modes PR (protected read, shared) and PW
(protected write, exclusive).  A conflicting enqueue sends blocking
callbacks to the holders; each holder invalidates its cached pages for
the file (writes here are write-through, so there is nothing dirty to
flush) and releases.  Grants are FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.util.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

PR = "PR"
PW = "PW"


def compatible(a: str, b: str) -> bool:
    return a == PR and b == PR


@dataclass
class _FileLocks:
    #: holder id -> mode
    granted: dict[str, str] = field(default_factory=dict)
    #: FIFO of (holder, mode, grant event)
    waiting: list[tuple[str, str, object]] = field(default_factory=list)


class LockManager:
    """The MDS-resident lock table.

    ``revoke_cb(holder_id, path)`` is invoked (as a generator) when a
    holder must drop its lock — the client-side hook that invalidates
    that client's cache.  The callback runs in the enqueuing RPC's
    context, charging its round-trip costs to the conflicting request
    (which is where Lustre's coherency overhead lands).
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._files: dict[str, _FileLocks] = {}
        self._revoke_cb = None
        self.stats = Counter()

    def set_revoke_callback(self, cb) -> None:
        self._revoke_cb = cb

    def holds(self, holder: str, path: str, mode: str) -> bool:
        fl = self._files.get(path)
        if fl is None:
            return False
        held = fl.granted.get(holder)
        return held == mode or held == PW  # PW implies PR rights

    def enqueue(self, holder: str, path: str, mode: str) -> Generator:
        """Acquire *mode* on *path* for *holder*; revokes conflicts."""
        if mode not in (PR, PW):
            raise ValueError(f"bad lock mode {mode!r}")
        self.stats.inc("enqueues")
        fl = self._files.setdefault(path, _FileLocks())
        held = fl.granted.get(holder)
        if held == mode or held == PW:
            return  # already sufficient
        if held == PR and mode == PW:
            # Upgrade: treat as release + fresh enqueue.
            del fl.granted[holder]

        conflicts = [h for h, m in fl.granted.items() if not compatible(m, mode)]
        for other in conflicts:
            self.stats.inc("revocations")
            if self._revoke_cb is not None:
                yield from self._revoke_cb(other, path)
            fl.granted.pop(other, None)
        fl.granted[holder] = mode

    def release(self, holder: str, path: str) -> None:
        fl = self._files.get(path)
        if fl is None:
            return
        fl.granted.pop(holder, None)
        if not fl.granted and not fl.waiting:
            del self._files[path]
        self.stats.inc("releases")

    def release_all(self, holder: str) -> int:
        """Drop every lock *holder* owns (client unmount); returns count."""
        n = 0
        for path in list(self._files):
            if holder in self._files[path].granted:
                self.release(holder, path)
                n += 1
        return n
