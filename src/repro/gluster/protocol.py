"""protocol/client translator: winds fops over the network to a brick.

Given a jitter stream — a testbed with a
:class:`~repro.net.rpc.ResilienceConfig` passes its ``rpc.jitter`` — the
connection rides out server flaps: a dead brick fails fast at the
fabric and the fop is retried with seeded backoff
(:meth:`~repro.net.rpc.Endpoint.call_retry`) until the brick returns or
the retries run out.  Then the error surfaces to the application: a
brick is the *only* copy of its data, unlike an MCD, so there is no
degraded path.  Without one every fop is a single attempt.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.gluster.server import GlusterServer, SERVICE, request_size
from repro.gluster.xlator import Xlator
from repro.net.rpc import Endpoint


class ClientProtocol(Xlator):
    """The bottom of a client-side stack: one connection to one brick.
    Each fop returns the RPC's generator, not a frame around it."""

    def __init__(
        self,
        endpoint: Endpoint,
        server: GlusterServer,
        jitter: Any = None,
    ) -> None:
        super().__init__(f"client-protocol/{server.node.name}")
        self.endpoint = endpoint
        self.server = server
        #: The retry backoff's jitter stream; None: no retries.
        self.jitter = jitter

    def _call(self, fop: str, args: tuple) -> Generator:
        return self.endpoint.call_retry(
            self.server.node, SERVICE, (fop, args), request_size(fop, args), self.jitter
        )

    def lookup(self, path):
        return self._call("lookup", (path,))

    def create(self, path):
        return self._call("create", (path,))

    def open(self, path):
        return self._call("open", (path,))

    def read(self, path, offset, size):
        return self._call("read", (path, offset, size))

    def write(self, path, offset, size, data=None):
        return self._call("write", (path, offset, size, data))

    def stat(self, path):
        return self._call("stat", (path,))

    def truncate(self, path, length):
        return self._call("truncate", (path, length))

    def unlink(self, path):
        return self._call("unlink", (path,))

    def flush(self, path):
        return self._call("flush", (path,))

    def fsync(self, path):
        return self._call("fsync", (path,))
