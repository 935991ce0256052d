"""A cyclic barrier built on events.

The paper's multi-client benchmarks are barrier-structured: "the
latency test starts with a barrier among all the processes ... each
record size is separated by a barrier" (§5.4).  :class:`Barrier`
reproduces that structure for the workloads and ``repro bench``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Barrier:
    """A reusable (cyclic) barrier for a fixed number of parties."""

    def __init__(self, sim: "Simulator", parties: int) -> None:
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.sim = sim
        self.parties = parties
        self._waiting = 0
        self._event = Event(sim)
        self.generation = 0

    def wait(self) -> Event:
        """Arrive at the barrier; the returned event fires when all
        parties have arrived.  The event value is the generation index.
        """
        self._waiting += 1
        ev = self._event
        if self._waiting == self.parties:
            self._waiting = 0
            self._event = Event(self.sim)
            ev.succeed(self.generation)
            self.generation += 1
        return ev
