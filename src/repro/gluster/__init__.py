"""A GlusterFS-like clustered file system (§2.1 of the paper).

Translator (xlator) architecture with client and server stacks, over
one server brick (§5.1):

* client: FUSE entry -> [CMCache] -> protocol/client
* server: protocol service -> [SMCache] -> storage/posix -> LocalFS

io-cache (the client-side cache of the §1 coherency anti-pattern) is a
translator an ablation can put into a client stack; the default testbed
does not build it.

The IMCa translators live in :mod:`repro.core` and plug into these
stacks exactly as §4.1 describes.
"""

from repro.gluster.client import BadFd, GlusterClient
from repro.gluster.costs import (
    DATA_OP_OVERHEAD,
    FUSE_OP_CPU,
    POSIX_OP_CPU,
    SERVER_IO_THREADS,
    SERVER_OP_CPU,
    STAT_WIRE,
)
from repro.gluster.iocache import IoCacheXlator
from repro.gluster.protocol import ClientProtocol
from repro.gluster.server import GlusterServer, PosixXlator, SERVICE
from repro.gluster.xlator import FOPS, Xlator

__all__ = [
    "Xlator",
    "FOPS",
    "GlusterClient",
    "GlusterServer",
    "PosixXlator",
    "ClientProtocol",
    "IoCacheXlator",
    "BadFd",
    "SERVICE",
    "FUSE_OP_CPU",
    "SERVER_OP_CPU",
    "POSIX_OP_CPU",
    "SERVER_IO_THREADS",
    "STAT_WIRE",
    "DATA_OP_OVERHEAD",
]
