"""Deterministic, named random streams.

Every stochastic component draws from its own named stream derived from
one master seed, so adding a new component (or reordering draws inside
one) never perturbs the others — a standard trick for reproducible
parallel-systems simulation.

numpy is imported by the first :meth:`RandomStreams.stream` call, not
by this module: a run that draws from no stream (every default
testbed) never loads it.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def _spawn_key(name: str) -> tuple[int, ...]:
    """The stream's spawn key: every little-endian 4-byte word of the
    UTF-8 *name*, zero-padded to a whole word and to at least 16 bytes.
    Every byte of the name counts, so names that share a long prefix get
    different streams; a name of 16 bytes or less keeps the key its
    first 16 bytes always gave it."""
    raw = name.encode("utf-8")
    raw = raw.ljust(max(16, -(-len(raw) // 4) * 4), b"\0")
    return struct.unpack(f"<{len(raw) // 4}I", raw)


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0xC0FFEE) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            # Derive a child seed from the master seed and the name, so the
            # mapping is stable regardless of creation order.
            child = np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=_spawn_key(name)
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen
