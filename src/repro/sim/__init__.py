"""A from-scratch deterministic discrete-event simulation engine.

Processes are generators yielding :class:`~repro.sim.events.Event`
objects or absolute wake times (floats); the :class:`~repro.sim.core.Simulator` owns the clock and the
event heap.  Resources, stores and sync primitives cover the queueing
patterns needed to model clusters: serialised devices, mailboxes,
barriers.
"""

from repro.sim.core import Simulator
from repro.sim.errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Timeout,
)
from repro.sim.monitor import Metrics, Tracer
from repro.sim.process import Join, Landing, Process, ProcessGenerator
from repro.sim.rand import RandomStreams
from repro.sim.resources import Container, PriorityResource, Request, Resource
from repro.sim.station import FifoStation
from repro.sim.store import FilterStore, Store
from repro.sim.sync import Barrier, CountdownLatch, Lock

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Join",
    "Landing",
    "ProcessGenerator",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "EmptySchedule",
    "Resource",
    "PriorityResource",
    "Request",
    "Container",
    "FifoStation",
    "Store",
    "FilterStore",
    "Barrier",
    "Lock",
    "CountdownLatch",
    "Metrics",
    "Tracer",
    "RandomStreams",
]
