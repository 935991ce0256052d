"""Network substrate: transports, fabric, RPC.

Models the paper's communication stack — InfiniBand DDR with native
RDMA, TCP over IPoIB (the transport GlusterFS, IMCa and Lustre use in
§5), and Gigabit Ethernet (Fig 1) — as chained FIFO stations.
"""

from repro.net.fabric import Hop, LinkImpairment, Network, NetworkError, Node
from repro.net.profiles import GIGE, IB_RDMA, IPOIB, PROFILES, TransportProfile, profile
from repro.net.rpc import (
    HEADER_SIZE,
    Conn,
    Endpoint,
    ResilienceConfig,
    RpcCall,
    RpcError,
    RpcUnavailable,
)

__all__ = [
    "Network",
    "Hop",
    "NetworkError",
    "LinkImpairment",
    "Node",
    "TransportProfile",
    "profile",
    "PROFILES",
    "IB_RDMA",
    "IPOIB",
    "GIGE",
    "Endpoint",
    "Conn",
    "ResilienceConfig",
    "RpcCall",
    "RpcError",
    "RpcUnavailable",
    "HEADER_SIZE",
]
