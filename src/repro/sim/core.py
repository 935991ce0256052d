"""The discrete-event simulator core: clock, scheduler, and run loop.

The schedule is one binary heap of ``(time, priority, seq, event,
runner)`` entries.  ``seq`` is unique, so entries pop in a strict total
order and a run is exactly reproducible.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from itertools import repeat
from math import inf
from typing import Any, Iterable

from repro.sim.errors import EmptySchedule, StopSimulation
from repro.sim.events import AllOf, Event, NORMAL, PENDING, STOP, Timeout
from repro.sim.process import Join, NO_EVENT, Process, ProcessGenerator, Strand


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds, starting at ``initial_time``.  Events at
    equal timestamps are ordered by priority then FIFO by scheduling
    sequence, so runs are exactly reproducible.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(1.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    1.0
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Schedule entries are ``(time, priority, seq, event, None)``
        #: for an event and ``(time, NORMAL, seq, None, runner)`` for a
        #: timed wake (a process that yielded a float).
        self._heap: list[tuple] = []
        #: The heap's insert, bound once for every scheduling site.
        self._push = partial(heappush, self._heap)
        self._seq = 0
        #: Monotone process counter; gives every Process a stable per-sim
        #: serial so observers (the span tracer) can key per-process
        #: state deterministically across runs.
        self._proc_seq = 0
        self._active_process: Process | None = None
        #: Whether analytic stations book their statistics (busy time,
        #: jobs, per-visit waits).  Observability bundles turn this on
        #: when a tracer or sampler is attached; an unobserved run books
        #: each visit's queue and nothing else.  Bare simulators keep it
        #: on so direct station users (tests, notebooks) see their stats.
        self.track_station_stats = True

    # -- public clock/state ----------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._heap)

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def at(self, when: float) -> Event:
        """An event that fires (value ``None``) at absolute time *when*.

        For callers outside a process, which cannot yield the float
        that :meth:`FifoStation.run` and :meth:`Network.transfer`
        return: ``sim.at(station.run(cost)).callbacks.append(fn)``.
        """
        if not self._now <= when < inf:
            raise ValueError(f"when={when!r} is not in [now={self._now!r}, inf)")
        event = Event(self)
        event._value = None
        self._schedule(event, at=when)
        return event

    def process(self, generator: ProcessGenerator, name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def gather(
        self, generators: Iterable[ProcessGenerator], name: str = "gather"
    ) -> Join:
        """Fork-join: run *generators* concurrently and fire with the
        list of their return values, in the order given.

        For short-lived children whose only consumer is the caller
        (``results = yield sim.gather([...])``); see :class:`Join`.
        Anything that must be interrupted, raced against a deadline or
        outlive its spawner stays a :meth:`process`.
        """
        generators = list(generators)
        join = Join(self, len(generators))
        parent = self._active_process
        try:
            for index, generator in enumerate(generators):
                Strand(self, generator, join, index, name, parent)
        finally:
            # Each strand cleared the active process on its way out.
            self._active_process = parent
        return join

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(
        self,
        event: Event,
        priority: int = NORMAL,
        delay: float = 0.0,
        *,
        at: float | None = None,
    ) -> None:
        """Schedule *event*; every event entry's sequence number is
        minted here (a timed wake's is minted in ``_Runner._resume``).
        ``at`` pins an exact absolute timestamp
        (``now + delay`` is not float-exact when ``delay`` was derived
        from ``at - now``).
        """
        self._seq += 1
        self._push(
            (self._now + delay if at is None else at, priority, self._seq, event, None)
        )

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        return self._heap[0][0] if self._heap else inf

    def _run_loop(self, limit: int = -1) -> int:
        """Pop and dispatch events until the schedule empties or *limit*
        events have been processed (negative = unbounded).

        This is the **only** event-processing path in the engine:
        :meth:`run` calls it unbounded, :meth:`step` calls it with
        ``limit=1``, so the two cannot drift.  Returns the number of
        events processed.

        The loop is the kernel's hottest code; everything it touches is
        bound to locals once.  An empty heap surfaces as ``IndexError``
        from *pop*, which is caught *around the pop alone* — an
        ``IndexError`` escaping a user callback still propagates.
        """
        # `partial` binds the heap at C level: per-pop cost is
        # indistinguishable from an inline `heappop(self._heap)`.
        pop = partial(heappop, self._heap)
        no_event = NO_EVENT
        processed = 0
        # `repeat` is a C-level iterator: the bounded/unbounded budget
        # costs nothing per iteration, unlike an int countdown.
        for _ in repeat(None) if limit < 0 else repeat(None, limit):
            try:
                when, _, seq, event, runner = pop()
            except IndexError:
                break
            processed += 1
            self._now = when
            if event is None:
                # A timed wake.  One whose runner was interrupted since
                # is stale: its time passes and nobody is resumed.
                if runner._wake == seq:
                    runner._resume(no_event)
                continue
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # Nobody handled the failure: surface it.
                raise event._value
        return processed

    def step(self) -> None:
        """Process exactly one event (advance the clock to it)."""
        if not self._run_loop(1):
            raise EmptySchedule("no more events")

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap empties, *until* time passes, or *until*
        event fires.  Returns the until-event's value when given one,
        and raises its exception when it failed (a client process that
        raised, under ``all_of``).
        """
        stop_event: Event | None = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            stop_event.callbacks.append(self._stop_on)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} is in the past (now={self._now})")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            # STOP priority: the clock halts *before* any user event
            # scheduled at `at`.
            self._schedule(stop_event, STOP, at=at)
            stop_event.callbacks.append(self._stop_on)

        try:
            self._run_loop()
        except StopSimulation as stop:
            return stop.value

        if until is not None and isinstance(until, Event) and until._value is PENDING:
            raise EmptySchedule(
                "simulation ran out of events before the until-event fired"
            )
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator t={self._now:.9f} pending={self.pending}>"
