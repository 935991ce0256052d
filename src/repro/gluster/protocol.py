"""protocol/client translator: winds fops over the network to a brick.

With a :class:`~repro.net.rpc.RetryPolicy` the connection rides out
server flaps: a dead brick fails fast at the fabric and the fop is
retried with backoff until the brick returns (or the budget runs out,
at which point the error surfaces to the application — a brick is the
*only* copy of its data, unlike an MCD, so there is no degraded path).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.gluster.server import GlusterServer, SERVICE, request_size
from repro.gluster.xlator import Xlator
from repro.net.rpc import Endpoint, RetryPolicy


class ClientProtocol(Xlator):
    """The bottom of a client-side stack: one connection to one brick."""

    def __init__(
        self,
        endpoint: Endpoint,
        server: GlusterServer,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(f"client-protocol/{server.node.name}")
        self.endpoint = endpoint
        self.server = server
        self.retry = retry

    def _call(self, fop: str, args: tuple) -> Generator:
        return self.endpoint.call_retry(
            self.server.node, SERVICE, (fop, args),
            req_size=request_size(fop, args), policy=self.retry,
        )

    def lookup(self, path):
        result = yield from self._call("lookup", (path,))
        return result

    def create(self, path):
        result = yield from self._call("create", (path,))
        return result

    def open(self, path):
        result = yield from self._call("open", (path,))
        return result

    def read(self, path, offset, size):
        result = yield from self._call("read", (path, offset, size))
        return result

    def write(self, path, offset, size, data=None):
        result = yield from self._call("write", (path, offset, size, data))
        return result

    def stat(self, path):
        result = yield from self._call("stat", (path,))
        return result

    def truncate(self, path, length):
        result = yield from self._call("truncate", (path, length))
        return result

    def unlink(self, path):
        result = yield from self._call("unlink", (path,))
        return result

    def flush(self, path):
        result = yield from self._call("flush", (path,))
        return result

    def fsync(self, path):
        result = yield from self._call("fsync", (path,))
        return result
