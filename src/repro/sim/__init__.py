"""A from-scratch deterministic discrete-event simulation engine.

Processes are generators yielding :class:`~repro.sim.events.Event`
objects or absolute wake times (floats); the :class:`~repro.sim.core.Simulator` owns the clock and the
event heap.  The rest is what the model runs: analytic FIFO stations
for serialised devices, a join for fork-join fan-out, a mailbox for
update threads, a barrier for the benchmarks' phases and named random
streams.
"""

from repro.sim.core import Simulator
from repro.sim.errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Join, Process, ProcessGenerator
from repro.sim.rand import RandomStreams
from repro.sim.station import FifoStation
from repro.sim.store import Store
from repro.sim.sync import Barrier

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Join",
    "ProcessGenerator",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "EmptySchedule",
    "FifoStation",
    "Store",
    "Barrier",
    "RandomStreams",
]
