"""An event-driven c-server FIFO: the reference ``FifoStation`` is
measured against (``test_booking_order.py``).

A :class:`Resource` models a server pool with fixed capacity: processes
``yield resource.request()`` to acquire a slot and call
``resource.release(req)`` (or use the request as a context manager) to
free it.  Waiters are granted in request order, so a job that arrives
first is served first — the work-conserving station that
``FifoStation``'s analytic booking matches only when every visit is
booked at its arrival (ROADMAP item 1).
"""

from repro.sim.events import Event


class Request(Event):
    """Acquisition event for a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: object) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        if self in self.resource.queue:
            self.resource.queue.remove(self)


class Resource:
    """A capacity-limited resource with a FIFO wait queue.

    Tracks utilisation so a test can read server contention directly.
    """

    def __init__(self, sim, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._busy_time = 0.0
        self._last_change = sim.now

    # -- accounting -----------------------------------------------------
    def _account(self) -> None:
        now = self.sim.now
        self._busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity in use since *since*."""
        self._account()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    # -- acquire / release ----------------------------------------------
    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self._grant(req)
        else:
            self.queue.append(req)
        return req

    def _grant(self, req: Request) -> None:
        self._account()
        self.users.append(req)
        req.succeed(req)

    def release(self, req: Request) -> None:
        """Free a held slot and grant the next waiter, if any."""
        if req not in self.users:
            raise RuntimeError("release() of a request that holds no slot")
        self._account()
        self.users.remove(req)
        if self.queue:
            self._grant(self.queue.pop(0))
