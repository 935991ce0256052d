"""Calibrated transport profiles.

The paper's testbed (§5.1) is a 64-node cluster of 8-core Intel
Clovertown machines with InfiniBand DDR HCAs; GlusterFS, IMCa and Lustre
all communicate over **IPoIB with Reliable Connection**; the motivation
experiment (Fig 1) additionally uses NFS/RDMA and NFS/TCP over GigE.

The constants below are calibrated from public microbenchmarks of that
hardware generation (OSU MVAPICH latency/bandwidth numbers for DDR
ConnectX, netperf over IPoIB and GigE, 2007-08 era):

===========  ==========  ==============  ==================
transport    one-way     effective BW    per-message host
             latency                     CPU overhead
===========  ==========  ==============  ==================
IB RDMA      ~3 us       ~1.4 GB/s       ~2 us (kernel bypass)
IPoIB (RC)   ~25 us      ~470 MB/s       ~10 us + copies
GigE (TCP)   ~45 us      ~112 MB/s       ~15 us + copies
===========  ==========  ==============  ==================

Absolute values only anchor the scale; every figure reproduced by the
harness depends on the *ratios* (network vs disk vs memory) which these
profiles preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GiB, KiB, MiB, USEC


@dataclass(frozen=True)
class TransportProfile:
    """Performance parameters of one network transport."""

    name: str
    #: One-way wire + switch propagation latency (s).
    wire_latency: float
    #: Effective per-NIC serialisation bandwidth (bytes/s).
    bandwidth: float
    #: Host CPU time consumed per message send (s).
    cpu_send: float
    #: Host CPU time consumed per message receive (s).
    cpu_recv: float
    #: Host CPU time per payload byte (copy cost; 0 for RDMA zero-copy).
    cpu_per_byte: float

    def __post_init__(self) -> None:
        # Checked once here, so the fabric's per-message pass need not.
        costs = (self.wire_latency, self.cpu_send, self.cpu_recv, self.cpu_per_byte)
        if min(costs) < 0 or self.bandwidth <= 0:
            raise ValueError(f"transport {self.name!r}: negative cost or no bandwidth")

    def host_cost(self, size: int, *, send: bool) -> float:
        """Host CPU seconds charged for a message of *size* bytes."""
        fixed = self.cpu_send if send else self.cpu_recv
        return fixed + self.cpu_per_byte * size

    def serialization(self, size: int) -> float:
        """NIC serialisation time for *size* bytes."""
        return size / self.bandwidth


#: Copy throughput of a 2007-era Xeon (~4 GB/s single-threaded memcpy).
_COPY_SEC_PER_BYTE = 1.0 / (4 * GiB)

#: InfiniBand DDR with native RDMA verbs (kernel bypass, zero copy).
IB_RDMA = TransportProfile(
    name="ib-rdma",
    wire_latency=3 * USEC,
    bandwidth=1.4 * GiB,
    cpu_send=2 * USEC,
    cpu_recv=2 * USEC,
    cpu_per_byte=0.0,
)

#: TCP over IPoIB with Reliable Connection — the paper's main transport.
IPOIB = TransportProfile(
    name="ipoib",
    wire_latency=25 * USEC,
    bandwidth=470 * MiB,
    cpu_send=10 * USEC,
    cpu_recv=10 * USEC,
    cpu_per_byte=_COPY_SEC_PER_BYTE,
)

#: TCP over Gigabit Ethernet.
GIGE = TransportProfile(
    name="gige",
    wire_latency=45 * USEC,
    bandwidth=112 * MiB,
    cpu_send=15 * USEC,
    cpu_recv=15 * USEC,
    cpu_per_byte=_COPY_SEC_PER_BYTE,
)

PROFILES = {p.name: p for p in (IB_RDMA, IPOIB, GIGE)}


def profile(name: str) -> TransportProfile:
    """Look up a transport profile by name (``ib-rdma``/``ipoib``/``gige``)."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown transport {name!r}; available: {sorted(PROFILES)}"
        ) from None
