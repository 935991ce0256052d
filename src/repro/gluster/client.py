"""The GlusterFS client mount: FUSE entry + fd table + xlator stack.

"a small portion of GlusterFS is in the kernel and the remaining
portion is in userspace.  The calls are translated from the kernel VFS
to the userspace daemon through ... FUSE" (§2.1) — each operation
charges a FUSE/VFS crossing on the client CPU before winding the stack,
and winds it ahead of the clock: its first message leaves when the
crossing ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.gluster.costs import FUSE_OP_CPU
from repro.gluster.xlator import Xlator
from repro.net.fabric import Node
from repro.obs.trace import NULL_TRACER
from repro.util.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class BadFd(Exception):
    """Operation on a closed or never-opened file descriptor."""


class GlusterClient:
    """A mounted GlusterFS client on one node."""

    def __init__(
        self, sim: "Simulator", node: Node, stack_top: Xlator, tracer=NULL_TRACER
    ) -> None:
        self.sim = sim
        self.node = node
        self.stack = stack_top
        self._fds: dict[int, str] = {}
        self._next_fd = 3
        self.stats = Counter()
        self.tracer = tracer

    # -- fd bookkeeping ------------------------------------------------------
    def _new_fd(self, path: str) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = path
        return fd

    def path_of(self, fd: int) -> str:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFd(f"fd {fd} is not open") from None

    def _op(self, name: str, path: str, fop: Generator, nbytes=None) -> Generator:
        """One POSIX op: *fop*, the stack's half of it, behind the FUSE
        crossing, under the op's root ``client`` span when tracing."""
        crossing = self._crossing(fop)
        if not self.tracer.enabled:
            return crossing
        return self._traced(name, path, nbytes, crossing)

    def _crossing(self, fop: Generator) -> Generator:
        """Book the FUSE/VFS crossing on the client CPU, then run *fop*
        ahead of it rather than sleep on it.

        The crossing's end becomes the process's ``ready``, and the op's
        first message departs no earlier (`Network.delivery_time`), so an
        op that sends costs no wake-up for the crossing.  An op that
        returns — or raises — before the clock reaches ``ready`` (a
        hot-cache hit, a singleflight follower whose flight ended first,
        a failure before the first send) waits it out then: no op ends
        before its crossing (DESIGN §7, "The FUSE crossing runs ahead").
        """
        sim = self.sim
        now = sim._now
        _, end = self.node.cpu.reserve(FUSE_OP_CPU)
        # The instant `yield cpu.run(FUSE_OP_CPU)` would have woken at.
        sim._active_process.ready = ready = now + (end - now)
        if self.tracer.enabled:
            self.tracer.mark("client", "client.fuse", now, ready)
        try:
            result = yield from fop
        except Exception:
            if sim._now < ready:
                yield ready
            raise
        if sim._now < ready:
            yield ready
        return result

    def _traced(self, name: str, path: str, nbytes, crossing: Generator) -> Generator:
        tracer = self.tracer
        with tracer.span("client", name):
            if tracer.oplog is not None:
                if nbytes is None:
                    tracer.op_set(client=self.node.name, path=path)
                else:
                    tracer.op_set(client=self.node.name, path=path, nbytes=nbytes)
            result = yield from crossing
        return result

    # -- POSIX-style entry points ------------------------------------------------
    def create(self, path: str) -> Generator:
        """creat(2): create + open; returns an fd."""
        self.stats.inc("creates")
        yield from self._op("client.create", path, self.stack.create(path))
        return self._new_fd(path)

    def open(self, path: str) -> Generator:
        """open(2); returns an fd."""
        self.stats.inc("opens")
        yield from self._op("client.open", path, self.stack.open(path))
        return self._new_fd(path)

    def read(self, fd: int, offset: int, size: int) -> Generator:
        """pread(2); returns a :class:`ReadResult`."""
        path = self.path_of(fd)
        self.stats.inc("reads")
        return self._op("client.read", path, self.stack.read(path, offset, size), size)

    def write(self, fd: int, offset: int, size: int, data=None) -> Generator:
        """pwrite(2); returns the server-assigned version."""
        path = self.path_of(fd)
        self.stats.inc("writes")
        return self._op(
            "client.write", path, self.stack.write(path, offset, size, data), size
        )

    def stat(self, path: str) -> Generator:
        """stat(2) by path; returns a :class:`StatBuf`."""
        self.stats.inc("stats")
        return self._op("client.stat", path, self.stack.stat(path))

    def fstat(self, fd: int) -> Generator:
        return self.stat(self.path_of(fd))

    def truncate(self, path: str, length: int) -> Generator:
        return self._op("client.truncate", path, self.stack.truncate(path, length))

    def unlink(self, path: str) -> Generator:
        self.stats.inc("unlinks")
        return self._op("client.unlink", path, self.stack.unlink(path))

    def fsync(self, fd: int) -> Generator:
        """fsync(2): returns once the server's write-back is durable."""
        path = self.path_of(fd)
        self.stats.inc("fsyncs")
        return self._op("client.fsync", path, self.stack.fsync(path))

    def close(self, fd: int) -> Generator:
        """close(2): winds a flush then releases the fd."""
        path = self.path_of(fd)
        self.stats.inc("closes")
        yield from self._op("client.close", path, self.stack.flush(path))
        del self._fds[fd]
