"""A mailbox for sim processes.

:class:`Store` is an unbounded FIFO of arbitrary items; ``put`` and
``get`` return events.  SMCache's update threads drain one under
``threaded_updates``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Store:
    """Unbounded FIFO item store: ``put`` never blocks, ``get`` waits
    for an item."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        # The put's event is scheduled before the getter it serves.
        ev = Event(self.sim)
        self.items.append(item)
        ev.succeed(item)
        self._serve()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._serve()
        return ev

    def _serve(self) -> None:
        while self._getters and self.items:
            ev = self._getters.popleft()
            ev.succeed(self.items.popleft())
