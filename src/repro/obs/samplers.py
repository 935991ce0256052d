"""Time-series samplers: periodic probes of live simulation state.

A :class:`Sampler` is a simulation process that wakes at a configurable
interval and records ``(sim time, value)`` points from a set of probes
into a :class:`~repro.obs.registry.ComponentMetrics` series.  Probes
are plain callables so any station, engine or cache can be watched:

    Sampler(sim, metrics, [("server.nic.rx.util", nic.rx.utilization)],
            interval=0.01)

Samplers are *opt-in*: they schedule real heap events (one timeout per
tick), so testbeds only start them when an observability bundle asks
for a sample interval.  The probes themselves are read-only — they
never reserve stations — so sampled and unsampled runs report identical
operation latencies; only the event heap differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Sequence

from repro.obs.registry import ComponentMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: A probe: (series name, zero-argument callable returning a number).
Probe = tuple[str, Callable[[], float]]

#: Hard cap on ticks so a forgotten sampler cannot grow without bound.
MAX_SAMPLES = 100_000


class Sampler:
    """Periodic sampling process bound to one simulator."""

    def __init__(
        self,
        sim: "Simulator",
        metrics: ComponentMetrics,
        probes: Sequence[Probe],
        interval: float,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.sim = sim
        self.metrics = metrics
        self.probes = list(probes)
        self.interval = interval
        self.ticks = 0
        self._stopped = False
        self.process = sim.process(self._run(), name="obs-sampler")

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._stopped = True

    def _run(self) -> Generator:
        while not self._stopped and self.ticks < MAX_SAMPLES:
            now = self.sim.now
            for name, probe in self.probes:
                self.metrics.sample(name, now, float(probe()))
            self.ticks += 1
            yield self.sim.timeout(self.interval)
            if not self.sim.pending:
                # Everything else has drained; a free-running sampler
                # would keep the simulation alive forever.
                break


def gluster_probes(tb) -> list[Probe]:
    """Default probe set for a built GlusterTestbed: NIC utilisation,
    io-thread queue depth, client/server CPU backlog and MCD memory."""
    probes: list[Probe] = []
    for server in tb.servers:
        nic = tb.net.nic(server.node)
        probes.append((f"{server.node.name}.nic.rx.util", nic.rx.utilization))
        probes.append((f"{server.node.name}.nic.tx.util", nic.tx.utilization))
        probes.append((f"{server.node.name}.io.backlog", server.io_pool.backlog))
        probes.append((f"{server.node.name}.cpu.backlog", server.node.cpu.backlog))
    for mcd in tb.mcds:
        probes.append(
            (
                f"{mcd.node.name}.mem.bytes",
                lambda engine=mcd.engine: engine.stat_dict().get("bytes_allocated", 0),
            )
        )
        probes.append((f"{mcd.node.name}.cpu.backlog", mcd.node.cpu.backlog))
    if tb.clients:
        node = tb.clients[0].node
        probes.append((f"{node.name}.cpu.backlog", node.cpu.backlog))
    return probes
