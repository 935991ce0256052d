"""The GlusterFS server: protocol service + posix brick translator.

The server daemon (glusterfsd) receives protocol requests, charges
decode + dispatch CPU on a bounded io-thread pool, winds them through
the server-side translator stack (SMCache sits here when IMCa is
enabled) and into the posix brick, which performs timed local-FS I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.gluster.costs import (
    DATA_OP_OVERHEAD,
    POSIX_OP_CPU,
    SERVER_IO_THREADS,
    SERVER_OP_CPU,
    STAT_WIRE,
)
from repro.gluster.xlator import FOPS, Xlator
from repro.localfs.fs import LocalFS
from repro.localfs.types import ReadResult, StatBuf
from repro.net.fabric import Network, Node
from repro.net.rpc import Endpoint, RpcCall
from repro.obs.trace import NULL_TRACER
from repro.sim.station import FifoStation
from repro.util.stats import Counter, Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: RPC service name for the GlusterFS protocol.
SERVICE = "gluster"
#: The server's per-fop tally attributes (``fop_<fop>`` counts), named once.
_FOP_TALLIES = {fop: f"_n_fop_{fop}" for fop in FOPS}


class PosixXlator(Xlator):
    """The storage/posix brick: terminates the stack on a LocalFS.
    Each fop books its CPU visit in its own frame: one frame per fop."""

    def __init__(self, fs: LocalFS, cpu: FifoStation) -> None:
        super().__init__("posix")
        self.fs = fs
        self.cpu = cpu

    def lookup(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.lookup(path))

    def create(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.create(path))

    def open(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.lookup(path))

    def read(self, path: str, offset: int, size: int) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.read(path, offset, size))

    def write(self, path: str, offset: int, size: int, data=None) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.write(path, offset, size, data))

    def stat(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.stat(path))

    def truncate(self, path: str, length: int) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return (yield from self.fs.truncate(path, length))

    def unlink(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        yield from self.fs.unlink(path)
        return None

    def flush(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        return None

    def fsync(self, path: str) -> Generator:
        yield self.cpu.run(POSIX_OP_CPU)
        yield from self.fs.fsync(path)
        return None


class GlusterServer(Tally):
    """One brick server: node + local FS + server-side xlator stack."""

    TALLY = tuple(f"fop_{fop}" for fop in FOPS)

    def __init__(
        self,
        sim: "Simulator",
        net: Network,
        node: Node,
        fs: LocalFS,
        server_xlators: Optional[list[Xlator]] = None,
        io_threads: int = SERVER_IO_THREADS,
        tracer=NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.node = node
        self.fs = fs
        self.endpoint = Endpoint(net, node, tracer=tracer)
        self.io_pool = FifoStation(sim, io_threads, f"{node.name}.io")
        self.posix = PosixXlator(fs, node.cpu)
        self.stack = Xlator.build_stack([*(server_xlators or []), self.posix])
        self.stats = self._tally(Counter())
        self.tracer = tracer
        self.endpoint.register(SERVICE, self._handle)

    def _handle(self, call: RpcCall) -> Generator:
        fop, args = call.args
        tally = _FOP_TALLIES[fop]
        setattr(self, tally, getattr(self, tally) + 1)
        if self.tracer.enabled:
            with self.tracer.span("server", f"server.{fop}"):
                if self.tracer.oplog is not None:
                    # One server round trip on the op's critical path.
                    self.tracer.op_count("server_fops")
                # Protocol decode + dispatch on the io-thread pool.
                yield self.io_pool.run(SERVER_OP_CPU)
                method = getattr(self.stack, fop)
                result = yield from method(*args)
        else:
            # Protocol decode + dispatch on the io-thread pool.
            yield self.io_pool.run(SERVER_OP_CPU)
            method = getattr(self.stack, fop)
            result = yield from method(*args)
        return result, self._resp_size(fop, result)

    @staticmethod
    def _resp_size(fop: str, result) -> int:
        if fop == "read":
            assert isinstance(result, ReadResult)
            return DATA_OP_OVERHEAD + result.size
        if isinstance(result, StatBuf):
            return STAT_WIRE
        return DATA_OP_OVERHEAD


def request_size(fop: str, args: tuple) -> int:
    """Wire size of a protocol request."""
    path = args[0]
    base = DATA_OP_OVERHEAD + len(path)
    if fop == "write":
        _path, _offset, size, _data = args
        return base + size
    return base
