"""Core event types for the discrete-event engine.

The engine follows the classic event/process pattern (as popularised by
SimPy): an :class:`Event` is a one-shot occurrence with a list of
callbacks; a process (see :mod:`repro.sim.process`) is a generator that
``yield``\\ s events and is resumed when they fire.

Every event moves through three states:

* *pending*  — created, not yet triggered; ``callbacks`` is a list.
* *triggered* — has a value and is scheduled on the event heap.
* *processed* — callbacks have run; ``callbacks`` is ``None``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Sentinel for "no value yet".
PENDING = object()

#: Scheduling priorities: urgent events at the same timestamp run first.
#: STOP outranks even URGENT — it is reserved for the engine's own
#: run-until markers, which must fire before any user event at the
#: same instant.
STOP = -1
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is PENDING:
            raise AttributeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise AttributeError("event not yet triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive *exception*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy state from an already-triggered *event* (chaining)."""
        self._ok = event._ok
        self._value = event._value
        self.sim._schedule(self, NORMAL)

    def defused(self) -> None:
        """Mark a failed event as handled so the engine won't re-raise."""
        self._defused = True

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover
        state = (
            "pending"
            if self._value is PENDING
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed delay; scheduled on creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, NORMAL, delay)


class Condition(Event):
    """An event that triggers from the states of a set of sub-events.

    ``evaluate(events, count)`` decides when: it receives the full list
    and the number already triggered OK.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        sim: "Simulator",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for ev in self._events:
            if ev.sim is not sim:
                raise ValueError("events from different simulators")

        if not self._events:
            self.succeed(self._collect())
            return
        for ev in self._events:
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        """Values of all triggered-OK sub-events, in creation order."""
        return ConditionValue(
            {ev: ev._value for ev in self._events if ev.triggered and ev._ok}
        )

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class ConditionValue(dict):
    """Mapping of sub-event -> value for a fired :class:`Condition`."""

    def first(self) -> Any:
        """Value of the first (creation-order) fired sub-event."""
        return next(iter(self.values()))


class AllOf(Condition):
    """Triggers when *all* sub-events have triggered OK."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, lambda evs, n: n == len(evs), events)


class AnyOf(Condition):
    """Triggers when *any* sub-event has triggered OK."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, lambda evs, n: n >= 1, events)
