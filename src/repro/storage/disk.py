"""Rotating-disk service time model.

Service time for an access is::

    per_op_overhead
    + (avg_seek + half_rotation)   if the head must move
    + size / streaming_bandwidth

The head is considered "in place" when the access starts exactly where
the previous one ended (sequential streaming).  The arm is a single
FIFO station, so concurrent streams interleave and pay seeks — the
"multiple streams ... cause increased disk seeking, reducing
performance" effect of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.station import FifoStation
from repro.util.stats import Counter, Tally
from repro.util.units import GiB, MiB, MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


@dataclass(frozen=True)
class DiskProfile:
    """Performance parameters of one spindle."""

    name: str
    capacity: int
    streaming_bandwidth: float  # bytes/s once the head is in place
    avg_seek: float  # average arm move (s)
    half_rotation: float  # average rotational delay (s)
    per_op_overhead: float  # controller + command overhead (s)

    def service_time(self, size: int, *, seek: bool) -> float:
        t = self.per_op_overhead + size / self.streaming_bandwidth
        if seek:
            t += self.avg_seek + self.half_rotation
        return t


#: A 2007-era 7200rpm SATA spindle (HighPoint RocketRAID members).
SATA_2007 = DiskProfile(
    name="sata-2007",
    capacity=500 * GiB,
    streaming_bandwidth=72 * MiB,
    avg_seek=8.5 * MSEC,
    half_rotation=4.17 * MSEC,  # 7200 rpm
    per_op_overhead=100 * USEC,
)


class Disk(Tally):
    """One spindle: a FIFO arm with head-position tracking.

    Head position evolves in reservation order, which equals service
    order for a FIFO arm, so sequential streams detected at reservation
    time are exact.
    """

    TALLY = ("reads", "writes", "bytes", "seeks")

    def __init__(self, sim: "Simulator", profile: DiskProfile = SATA_2007, name: str = "disk"):
        self.sim = sim
        self.profile = profile
        self.name = name
        self.arm = FifoStation(sim, 1, f"{name}.arm")
        # Parked: the first access always pays a seek.
        self._head = -1
        #: Service-time multiplier for fault injection (slow-disk
        #: episodes: a rebuilding array member, a failing spindle
        #: retrying sectors).  1.0 = healthy; never changes healthy
        #: timestamps because the multiply is skipped entirely.
        self._slowdown = 1.0
        self.stats = self._tally(Counter())

    @property
    def slowdown(self) -> float:
        return self._slowdown

    def set_slowdown(self, factor: float) -> None:
        """Scale all subsequent service times by *factor* (>= 1)."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1.0: {factor}")
        self._slowdown = float(factor)

    def access_time(self, offset: int, size: int, write: bool = False) -> float:
        """Reserve the arm for one access; return absolute completion time."""
        if offset < 0 or size < 0:
            raise ValueError("negative offset/size")
        if offset + size > self.profile.capacity:
            raise ValueError(
                f"access [{offset}, {offset + size}) beyond capacity "
                f"{self.profile.capacity}"
            )
        seek = offset != self._head
        self._head = offset + size
        service = self.profile.service_time(size, seek=seek)
        if self._slowdown != 1.0:
            service *= self._slowdown
        _, end = self.arm.reserve(service)
        if write:
            self._n_writes += 1
        else:
            self._n_reads += 1
        self._n_bytes += size
        if seek:
            self._n_seeks += 1
        return end

    @property
    def head(self) -> int:
        return self._head

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Disk {self.name} ({self.profile.name}) head={self._head}>"
