"""Generator-based simulation processes.

A process is a Python generator that ``yield``\\ s :class:`Event` objects;
the engine resumes it with the event's value (or throws the event's
exception) when the event is processed.  It may also yield a float: the
absolute simulated time at which to resume it, with ``None`` — a timed
wait that costs a schedule entry and nothing else (DESIGN §7).  The
:class:`Process` wrapper is itself an event that fires when the
generator returns, so processes can wait on each other.

A :class:`Join` (``Simulator.gather``) is the fork-join form for
short-lived children: each child runs as a :class:`Strand` — the same
resume loop, the same identity the tracer keys on — but starts inside
the call and reports to the join instead of owning schedule entries.
A child need not be a generator at all: anything that reports through
:class:`JoinChild` (an RPC leg booked as callbacks, ``repro.net.rpc.Leg``)
joins the same way, and may land its value at a booked arrival instead
of sleeping on it.

Every runner carries ``ready``: the instant before which nothing it
sends may depart.  A runner that has booked work it need not sleep on —
a FUSE crossing on its own CPU — sets it and runs ahead of the clock;
the strands and processes it creates inherit it (DESIGN §7, "The FUSE
crossing runs ahead").
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Generator, Union

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event, NORMAL, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

ProcessGenerator = Generator[Union[Event, float], Any, Any]


class Initialize(Event):
    """Urgent event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule(self, URGENT)


class _NoEvent:
    """What a resume that no event caused receives — a strand's start,
    a timed wake: valueless and ok, like a processed :class:`Timeout`."""

    __slots__ = ()
    _ok = True
    _value = None


NO_EVENT = _NoEvent()


def departure(sim: "Simulator") -> float:
    """When work the active runner starts now may begin: now, or the
    runner's ``ready`` if that is later (a message it sends, a span it
    opens)."""
    now = sim._now
    runner = sim._active_process
    if runner is not None and runner.ready > now:
        return runner.ready
    return now


class _Runner:
    """Drives one generator: the resume loop :class:`Process` and
    :class:`Strand` share.  The subclass supplies ``succeed``/``fail``
    (what the generator's return or exception turns into) and the
    ``sim``/``_generator``/``_target``/``_wake``/``name``/``ready``
    attributes (the slots live on the subclasses: ``Event`` has its
    own, and two slotted bases cannot share a layout)."""

    __slots__ = ()

    def _resume(self, event: Event) -> None:
        # The engine's hottest code path: every event delivery and every
        # timed wake lands here.  The generator's bound methods are
        # hoisted into locals once per delivery.
        sim = self.sim
        sim._active_process = self
        gen = self._generator
        send = gen.send
        try:
            while True:
                try:
                    if event._ok:
                        yielded = send(event._value)
                    else:
                        # The process handles (or not) the failure itself.
                        event._defused = True
                        yielded = gen.throw(event._value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    break
                except BaseException as exc:
                    self.fail(exc)
                    break

                if yielded.__class__ is float:
                    # A timed wait.  Its entry's seq is minted here, the
                    # first thing to happen after the yield, so the wake
                    # orders among events as a `Timeout` made at the yield
                    # would; the seq is also the token `_run_loop` matches
                    # to tell a live wake from one an interrupt made stale.
                    if sim._now <= yielded < inf:
                        sim._seq = self._wake = seq = sim._seq + 1
                        sim._push((yielded, NORMAL, seq, None, self))
                        self._target = None
                        break
                    problem = f"a wake time outside [now={sim._now!r}, inf)"
                elif isinstance(yielded, Event):
                    callbacks = yielded.callbacks
                    if callbacks is not None:
                        # Pending or triggered-but-unprocessed: wait for it.
                        callbacks.append(self._resume)
                        self._target = yielded
                        break
                    # Already processed: continue immediately with its value.
                    event = yielded
                    continue
                else:
                    problem = "a non-event"
                # Thrown into the process on the next turn of the loop.
                event = Event(sim)
                event._ok = False
                event._value = SimulationError(
                    f"process {self.name!r} yielded {problem}: {yielded!r}"
                )
        finally:
            sim._active_process = None


class Process(_Runner, Event):
    """A running simulation process; also an event (fires on return)."""

    __slots__ = ("_generator", "_target", "_wake", "name", "serial", "parent", "ready")

    def __init__(
        self, sim: "Simulator", generator: ProcessGenerator, name: str | None = None
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._target: Event | None = Initialize(sim, self)
        #: Seq of the timed wake this process sleeps on (0: none live).
        self._wake = 0
        self.name = name or getattr(generator, "__name__", "process")
        sim._proc_seq += 1
        #: Per-sim creation serial (deterministic across identical runs).
        self.serial = sim._proc_seq
        #: The process that spawned this one (None when created from
        #: outside the run loop).  Observers walk this chain to
        #: attribute work done by helper processes (multi-get batches,
        #: fill reads, fan-outs) to the client op that spawned them.
        self.parent: "Process" | None = sim._active_process
        #: No message this process sends departs before this instant
        #: (see the module docstring); its creator's, or none.
        self.ready = -inf if self.parent is None else self.parent.ready

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Event | None:
        """The event this process is parked on; ``None`` while it sleeps
        on a timed wait (a yielded float), which has no event."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        A dead process cannot be interrupted; interrupting the currently
        active process is an error (a process cannot interrupt itself
        synchronously).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self.name} has terminated; cannot interrupt")
        if self is self.sim.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        self.sim._schedule(event, URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # terminated before the interrupt was delivered
        # Detach from the event we were waiting on, then resume with the
        # failure.  The original event may still fire later; the process
        # simply no longer listens to it.  A timed wake cannot be taken
        # off the schedule: clearing the token makes it stale instead.
        self._wake = 0
        if (
            self._target is not None
            and self._target.callbacks is not None
            and self._resume in self._target.callbacks
        ):
            self._target.callbacks.remove(self._resume)
        self._resume(event)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name} ({state})>"


class JoinChild:
    """How a child of a :class:`Join` reports: :meth:`land` its value,
    or :meth:`fail`.  The subclass supplies ``sim``, ``_join`` and
    ``_index`` (slots live on the subclasses, as for :class:`_Runner`)."""

    __slots__ = ()

    def land(self, value: Any, at: float = -inf) -> None:
        """Report *value*, counted from the absolute instant *at* (a
        float a timed wait would have yielded; a plain return is
        ``-inf``).  To land rather than sleep until *at* saves the
        child's wake-up; the :class:`Join` fires no earlier than the
        latest landing (DESIGN §7, "Landed legs"), and a landing at or
        before ``now`` is a plain return."""
        join = self._join
        if at > join._landing:
            join._landing = at
        join._results[self._index] = value
        join._pending -= 1
        if not join._pending and join._value is PENDING:
            # Event.succeed, at the latest landing rather than now.
            sim = self.sim
            join._value = join._results
            sim._schedule(join, at=max(sim._now, join._landing))

    def fail(self, exception: BaseException) -> None:
        # The first failure fails the join; a later one has nobody left
        # to tell and is dropped (the AllOf contract, minus the crash).
        join = self._join
        join._pending -= 1
        if join._value is PENDING:
            join.fail(exception)


class Strand(_Runner, JoinChild):
    """One generator child of a :class:`Join`.

    Process-like where observers look — it is ``sim.active_process``
    while it runs and carries ``name``/``serial``/``parent`` — but not
    an event: nothing can wait on a strand, its return value goes to
    the join.
    """

    __slots__ = (
        "sim", "_generator", "_target", "_wake", "name", "serial", "parent", "ready",
        "_join", "_index",
    )

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        join: "Join",
        index: int,
        name: str,
        parent: "Process | Strand | None",
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.sim = sim
        self._generator = generator
        self._target: Event | None = None
        self._wake = 0
        self.name = name
        sim._proc_seq += 1
        self.serial = sim._proc_seq
        self.parent = parent
        self.ready = -inf if parent is None else parent.ready
        self._join = join
        self._index = index
        self._resume(NO_EVENT)

    #: A strand's return value is a plain return: it lands now.
    succeed = JoinChild.land


class Join(Event):
    """Fork-join: fires with its children's values, in child order,
    once the last one has reported.

    :meth:`Simulator.gather` starts one :class:`Strand` per generator
    *eagerly*, in order, inside the call; the join costs one schedule
    entry in total — against one ``Initialize`` plus one completion
    entry per child and one more for the ``AllOf`` when each child is a
    :class:`Process`.  Delivery is an ordinary scheduled event, not a
    synchronous wake-up (DESIGN §7).

    A child may report a landing (:meth:`JoinChild.land` with an
    instant): its value then counts from the landing's instant, and
    the join's one entry is booked, when the last child reports, at the
    latest landing (or now, if later).

    The first child to raise fails the join with its exception, at the
    instant it raises; the other children keep running and their
    results or later failures are discarded.
    """

    __slots__ = ("_results", "_pending", "_landing")

    def __init__(self, sim: "Simulator", size: int) -> None:
        super().__init__(sim)
        self._results: list[Any] = [None] * size
        self._pending = size
        #: The latest landing a child has reported so far.
        self._landing = -inf
        if not size:
            self.succeed(self._results)
