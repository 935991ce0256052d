"""The `Observability` bundle and the active-capture context.

Testbed builders accept an optional :class:`Observability` bundle and
wire its tracer and metrics registry through every component they
construct.  The default bundle is fully disabled: the tracer is the
shared :data:`~repro.obs.trace.NULL_TRACER` and no sampler process is
started, so an uninstrumented testbed pays nothing.

The *capture context* connects the CLI to runner-internal testbeds.
Experiments build testbeds deep inside their run functions; the CLI
cannot hand them a bundle directly.  Instead it wraps the run in
``observing(ObsRequest(trace=True))``, and runners that support
instrumentation call :func:`make_observability` — which merges the
active request's wishes into the new bundle and publishes the bundle
back onto ``request.captures`` so the CLI can export its artifacts
afterwards.  Outside any ``observing`` block, ``make_observability``
returns a plain disabled bundle, so runners stay unconditional.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.oplog import OpLog
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SimTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Observability:
    """Everything one testbed needs to observe itself.

    Create with ``trace=True`` to request span tracing; the tracer is
    instantiated lazily by :meth:`bind` because it needs the simulator,
    which the testbed builder creates.  ``sample_interval`` (seconds of
    sim time) opts into the time-series sampler process.  The tracer
    keeps at most ``DEFAULT_SPAN_LIMIT`` spans and the op log
    ``DEFAULT_OPLOG_LIMIT`` records.
    """

    def __init__(
        self,
        name: str = "obs",
        *,
        trace: bool = False,
        oplog: bool = False,
        sample_interval: Optional[float] = None,
    ) -> None:
        self.name = name
        self.registry = MetricsRegistry(name)
        # The oplog is populated from the span stack, so layer 2
        # implies layer 1.
        self.trace_requested = trace or oplog
        #: Per-op lifecycle log (observability layer 2), or None.
        self.oplog: Optional[OpLog] = OpLog() if oplog else None
        self.sample_interval = sample_interval
        self.tracer = NULL_TRACER
        #: Samplers started by the testbed builder (see cluster.py).
        self.samplers: list = []

    def bind(self, sim: "Simulator") -> "Observability":
        """Attach to a simulator, instantiating the tracer if requested.

        Builders call this once; binding an already-bound bundle to a
        second simulator is an error because spans from two clocks
        cannot share one trace.
        """
        if self.trace_requested:
            if self.tracer is not NULL_TRACER:
                if self.tracer.sim is not sim:
                    raise ValueError("Observability already bound to another simulator")
            else:
                self.tracer = SimTracer(sim, oplog=self.oplog)
        # Stations only pay for their statistics (busy time, jobs,
        # waits) when someone can observe them; a fully disabled bundle
        # turns them off for every station of this simulator.
        sim.track_station_stats = bool(
            self.trace_requested or self.sample_interval
        )
        return self

    @property
    def tracing(self) -> bool:
        """True once a live tracer is attached."""
        return self.tracer.enabled

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Observability {self.name!r} trace={self.trace_requested} "
            f"sample_interval={self.sample_interval}>"
        )


@dataclass
class ObsRequest:
    """What the caller (usually the CLI) wants captured from runs
    executed inside an ``observing`` block."""

    trace: bool = False
    oplog: bool = False
    sample_interval: Optional[float] = None
    #: Bundles published by runners, in creation order.
    captures: list[Observability] = field(default_factory=list)


_active: Optional[ObsRequest] = None


def active_request() -> Optional[ObsRequest]:
    """The innermost active :class:`ObsRequest`, or ``None``."""
    return _active


@contextmanager
def observing(request: ObsRequest) -> Iterator[ObsRequest]:
    """Make *request* the active capture request for the block."""
    global _active
    previous = _active
    _active = request
    try:
        yield request
    finally:
        _active = previous


def make_observability(
    name: str,
    *,
    trace: bool = False,
    oplog: bool = False,
    sample_interval: Optional[float] = None,
) -> Observability:
    """Build a bundle, honouring the active capture request.

    Explicit keyword wishes are OR-ed/overridden with the active
    request's, and the resulting bundle is appended to the request's
    ``captures`` so the caller of ``observing`` can collect it.  With no
    active request this returns a bundle with exactly the explicit
    settings (disabled by default).
    """
    req = active_request()
    if req is not None:
        trace = trace or req.trace
        oplog = oplog or req.oplog
        if sample_interval is None:
            sample_interval = req.sample_interval
    obs = Observability(
        name, trace=trace, oplog=oplog, sample_interval=sample_interval
    )
    if req is not None:
        req.captures.append(obs)
    return obs
