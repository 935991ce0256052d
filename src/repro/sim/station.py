"""Analytic FIFO queueing stations.

A :class:`FifoStation` models a work-conserving FIFO service centre with
``servers`` identical servers (a NIC serialiser, a disk arm, a pool of
service threads).  Because every job's service demand is known when it
arrives, the start/completion times can be computed *analytically* at
reservation time — one heap event per visit instead of the
request/hold/release triple of a :class:`~repro.sim.resources.Resource`.
This is the standard flow-level optimisation that keeps paper-scale
workloads (millions of operations) tractable in pure Python.

Semantics: reservations are served in reservation order, each on the
server that is earliest free at *booking* time.  When two messages are
committed in the same simulation instant this matches FIFO exactly.
Reservations made "from the future" (pipelined hops, see
:meth:`FifoStation.reserve`) conserve total busy time but are not
work-conserving: a visit booked ahead of its arrival outranks every
visit booked after it, even one that arrives first, and can hold a
server idle until it arrives, a hole no later booking fills.  Under
load this moves aggregate latency and throughput, not just individual
waits: folding the MCD lookup into the request's receive visit moved
``stat_storm`` throughput by +6.9% and Fig 5's ``MCD(1)`` point from
79.25 to 71.26 ms, and sending each op's first message ahead of its
FUSE crossing moved ``write_mix`` throughput by about −1.7%, with no
change to the modelled system.  On an 8-core station ~90% busy with
half its visits booked L ahead, the mean wait is overstated by 27% at
L = 7 µs and by 170% at L = 25 µs (``tests/sim/test_booking_order.py``).
See DESIGN §7, "What moves in the model" under "An MCD round trip is
two entries" and "The FUSE crossing runs ahead", and ROADMAP open item
1 (work-conserving stations).
"""

from __future__ import annotations

from heapq import heapreplace
from typing import TYPE_CHECKING

from repro.util.stats import OnlineStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class FifoStation:
    """A c-server FIFO station with analytic reservation."""

    __slots__ = (
        "sim",
        "name",
        "servers",
        "_free",
        "busy_time",
        "jobs",
        "wait_stats",
        "_created_at",
    )

    def __init__(self, sim: "Simulator", servers: int = 1, name: str = "") -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self.sim = sim
        self.name = name
        self.servers = servers
        # Earliest-free-server heap; server assignment by earliest free
        # time is exact for FIFO multi-server queues.  A server's free
        # time only grows (a visit ends no earlier than the free time it
        # replaced), so the heap's maximum is when all servers are free.
        self._free = [0.0] * servers
        # Statistics, booked only while ``sim.track_station_stats`` is
        # on (a tracer or sampler attached; bare simulators default to
        # on).  An unobserved visit books its queue and nothing else.
        self.busy_time = 0.0
        self.jobs = 0
        self.wait_stats = OnlineStats()
        self._created_at = sim.now

    def reserve(self, service: float, arrival: float | None = None) -> tuple[float, float]:
        """Reserve one server for *service* seconds.

        Returns ``(start, end)``.  *arrival* defaults to the current
        simulation time; hops chained through several stations pass the
        upstream completion time instead.
        """
        if service < 0:
            raise ValueError(f"negative service time: {service}")
        sim = self.sim
        if arrival is None:
            arrival = sim._now
        free_heap = self._free
        # The earliest-free server takes the job.  `_free[0]` is the heap
        # minimum, so one `heapreplace` is the pop-then-push of the same
        # server; with one server the heap is a plain cell.
        free = free_heap[0]
        start = free if free > arrival else arrival
        end = start + service
        if self.servers == 1:
            free_heap[0] = end
        else:
            heapreplace(free_heap, end)
        if sim.track_station_stats:
            self.busy_time += service
            self.jobs += 1
            self.wait_stats.add(start - arrival)
        return start, end

    def run(self, service: float) -> float:
        """Reserve and return the absolute completion time.

        ``yield station.run(cost)`` is the one-entry replacement for the
        request/timeout/release pattern: a process that yields a float
        sleeps until that time.  Outside a process, wrap it:
        ``sim.at(station.run(cost))`` is an event.

        This is :meth:`reserve` from now, inlined — the kernel's single
        hottest entry point.
        """
        if service < 0:
            raise ValueError(f"negative service time: {service}")
        sim = self.sim
        arrival = sim._now
        free_heap = self._free
        free = free_heap[0]
        start = free if free > arrival else arrival
        end = start + service
        if self.servers == 1:
            free_heap[0] = end
        else:
            heapreplace(free_heap, end)
        if sim.track_station_stats:
            self.busy_time += service
            self.jobs += 1
            self.wait_stats.add(start - arrival)
        # Not `end`: a completion is a delay from now, as
        # `sim.timeout(end - now)` would schedule it, and
        # `now + (end - now)` can differ from `end` in the last bit.
        return arrival + (end - arrival)

    def backlog(self) -> float:
        """Seconds until *all* servers are free (queue depth proxy)."""
        remaining = max(self._free) - self.sim._now
        return remaining if remaining > 0.0 else 0.0

    def utilization(self, since: float | None = None) -> float:
        """Busy fraction of total server-time since *since* (creation
        by default).  May exceed 1.0 transiently because reservations
        extend into the future.

        Busy time is a statistic, booked only while the simulator's
        ``track_station_stats`` is on: on an unobserved station this
        raises :class:`RuntimeError` rather than report an idle 0.0."""
        if not self.sim.track_station_stats:
            raise RuntimeError(
                f"{self.name or 'station'}: utilization needs "
                "sim.track_station_stats (an unobserved station books no busy time)"
            )
        if since is None:
            since = self._created_at
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.servers)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FifoStation {self.name or id(self):} servers={self.servers} "
            f"jobs={self.jobs} backlog={self.backlog():.6f}s>"
        )
