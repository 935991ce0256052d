"""Span-based tracing on simulation time.

A *span* covers one tier's share of an operation: it opens when the
component enters its timed section and closes when the ``yield from``
unwinds.  Spans nest naturally — RPC handlers run in the caller's
process, so a ``client.stat`` span contains the request/response
network spans, the server dispatch span and the disk span — and the
tracer maintains one span stack per simulation process, so concurrently
interleaved clients never corrupt each other's nesting.

Two guarantees matter for the reproduction:

* **Determinism** — spans only read ``sim.now`` (or the landing instant
  a span is told to close at, ``_Span.end``, or the ``ready`` of a
  process running ahead of the clock, which a span opened meanwhile
  starts at — DESIGN §7, "The FUSE crossing runs ahead"); opening or
  closing a span never schedules a sim event, so traced and untraced
  runs report identical latencies, and same-seed traces are
  byte-identical.
* **Near-zero disabled cost** — the default :data:`NULL_TRACER` has
  ``enabled = False`` and hot paths branch on that single attribute;
  cold paths may use ``with tracer.span(...)`` directly, which on the
  null tracer is one method call returning a shared no-op context
  manager.

Per-tier accounting uses *exclusive* time: a span's duration minus the
durations of spans nested directly inside it on the same process.  The
five tiers of the paper's cost model are listed in :data:`TIERS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.process import departure
from repro.util.stats import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.oplog import OpLog, OpRecord
    from repro.sim.core import Simulator

#: The per-tier decomposition of an op (paper §4/§5 cost discussion).
TIERS = ("client", "network", "mcd", "server", "disk")

#: Default cap on retained span records (memory guard; excess spans
#: still feed tier statistics but are not exported).
DEFAULT_SPAN_LIMIT = 1_000_000


class SpanRecord:
    """One closed span: where sim time went in one tier visit."""

    __slots__ = ("name", "tier", "tid", "start", "end", "child_time")

    def __init__(
        self, name: str, tier: str, tid: int, start: float, end: float, child_time: float
    ) -> None:
        self.name = name
        self.tier = tier
        self.tid = tid
        self.start = start
        self.end = end
        self.child_time = child_time

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        """Duration minus directly nested child spans (same process)."""
        return self.end - self.start - self.child_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, tier={self.tier!r}, "
            f"[{self.start:.9f}, {self.end:.9f}])"
        )


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every span is the shared no-op context manager.

    Components hold a reference to this by default; hot paths check
    ``tracer.enabled`` once and skip span construction entirely.  The
    oplog annotation API exists here as no-ops so cold paths may call
    it unconditionally; hot paths gate on ``tracer.oplog is not None``.
    """

    enabled = False
    #: No op log on a disabled tracer (annotation hot paths branch here).
    oplog = None

    def span(self, tier: str, name: str) -> _NullSpan:
        return _NULL_SPAN

    def op_set(self, **fields) -> None:
        pass

    def op_tag(self, tag: str) -> None:
        pass

    def op_count(self, name: str, by: int = 1) -> None:
        pass

    @property
    def spans(self) -> list:
        return []

    @property
    def tier_stats(self) -> dict:
        return {}

    @property
    def op_stats(self) -> dict:
        return {}

    def track_names(self) -> list:
        return []


#: The process-wide disabled tracer instance.
NULL_TRACER = NullTracer()


class _Span:
    """An open span; use as a context manager around ``yield from``."""

    __slots__ = ("tracer", "tier", "name", "start", "child_time", "_key", "end")

    def __init__(self, tracer: "SimTracer", tier: str, name: str) -> None:
        self.tracer = tracer
        self.tier = tier
        self.name = name
        self.start = 0.0
        self.child_time = 0.0
        self._key = 0
        #: Close instant, when not ``sim.now`` at exit: set when the
        #: span's work ends with a reply its process returns as a
        #: ``repro.sim.Landing`` rather than sleeps on.
        self.end: Optional[float] = None

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        # Not `now` for a process running ahead: what it times has not
        # begun before its FUSE crossing ends.
        self.start = departure(tracer.sim)
        self._key = tracer._track_key()
        stack = tracer._stack(self._key)
        if tracer.oplog is not None and not stack and self.tier == "client":
            # A root client-tier span is one client-visible operation:
            # open its lifecycle record alongside the span.
            tracer._open_ops[self._key] = tracer.oplog.begin(self.name, self.start)
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._close(self)
        return False


class SimTracer:
    """Collects spans against one :class:`~repro.sim.core.Simulator`.

    Tracks are simulation processes: each process that opens a span is
    assigned a small deterministic thread id (first-open order), which
    becomes the ``tid`` in the Chrome trace export.
    """

    enabled = True

    def __init__(
        self,
        sim: "Simulator",
        limit: int = DEFAULT_SPAN_LIMIT,
        oplog: Optional["OpLog"] = None,
    ) -> None:
        self.sim = sim
        self.limit = limit
        #: Per-op lifecycle log (None = layer 2 disabled, near-free).
        self.oplog = oplog
        #: track key -> the op record currently open on that process.
        self._open_ops: dict[int, "OpRecord"] = {}
        #: Closed spans in close order (deterministic).
        self.spans: list[SpanRecord] = []
        #: Spans not retained because ``limit`` was reached.
        self.dropped = 0
        #: tier -> histogram of *exclusive* span durations.
        self.tier_stats: dict[str, Histogram] = {}
        #: root span name (e.g. ``client.stat``) -> end-to-end durations.
        self.op_stats: dict[str, Histogram] = {}
        # Per-process span stacks and deterministic tid assignment,
        # keyed by the process's per-sim serial number.
        self._stacks: dict[int, list[_Span]] = {}
        self._tids: dict[int, tuple[int, str]] = {}
        self._next_tid = 0

    # -- span lifecycle ----------------------------------------------------
    def span(self, tier: str, name: str) -> _Span:
        """Open a span; use ``with tracer.span(tier, name):``."""
        return _Span(self, tier, name)

    def interval(self, tier: str, name: str, start: float) -> None:
        """Record a closed span ``[start, now]`` nested in the active
        process's open span: station time that ended just now inside
        a visit the enclosing span already waited on (an MCD command's
        CPU, folded into the request's receive visit), so its tier
        gets the time and the enclosing span's exclusive time does not."""
        span = _Span(self, tier, name)
        span.__enter__()
        span.start = start
        self._close(span)

    def mark(self, tier: str, name: str, start: float, end: float) -> None:
        """Record ``[start, end]`` on the active process's timeline and
        nowhere else: time the enclosing span already holds as its own
        exclusive time (the FUSE crossing an op runs ahead of), so no
        tier statistic, child time or op record moves."""
        if len(self.spans) < self.limit:
            tid = self._tids[self._track_key()][0]
            self.spans.append(SpanRecord(name, tier, tid, start, end, 0.0))
        else:
            self.dropped += 1

    def _track_key(self) -> int:
        proc = self.sim.active_process
        if proc is None:
            if 0 not in self._tids:
                self._tids[0] = (self._alloc_tid(), "main")
            return 0
        key = proc.serial
        if key not in self._tids:
            self._tids[key] = (self._alloc_tid(), proc.name)
        return key

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _stack(self, key: int) -> list[_Span]:
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def _close(self, span: _Span) -> None:
        end = self.sim.now if span.end is None else span.end
        if end < span.start:
            # Opened and closed ahead of a FUSE crossing with nothing
            # sent (an ejected MCD refused at once): it lasts nothing,
            # as it did when the op slept until ``ready``.
            end = span.start
        key = span._key
        stack = self._stacks[key]
        popped = stack.pop()
        assert popped is span, "span close order violated"
        duration = end - span.start
        root = not stack
        if root:
            del self._stacks[key]
            # A root span is one complete client-visible operation.
            ops = self.op_stats.get(span.name)
            if ops is None:
                ops = self.op_stats[span.name] = Histogram()
            ops.add(duration)
        else:
            stack[-1].child_time += duration
        tier = self.tier_stats.get(span.tier)
        if tier is None:
            tier = self.tier_stats[span.tier] = Histogram()
        tier.add(duration - span.child_time)
        if self.oplog is not None:
            rec = self._open_ops.get(key)
            if rec is not None:
                rec.add_tier(span.tier, duration - span.child_time)
                if root:
                    self.oplog.finish(self._open_ops.pop(key), end)
        if len(self.spans) < self.limit:
            self.spans.append(
                SpanRecord(
                    span.name, span.tier, self._tids[key][0], span.start, end, span.child_time
                )
            )
        else:
            self.dropped += 1

    # -- op-record annotations (layer 2) -----------------------------------
    def _current_op(self) -> Optional["OpRecord"]:
        """The op record owning the active process, walking the spawner
        chain so helper processes (multi-get batches, fill reads,
        fan-outs) attribute to the client op that spawned them."""
        proc = self.sim.active_process
        while proc is not None:
            rec = self._open_ops.get(proc.serial)
            if rec is not None:
                return rec
            proc = proc.parent
        return self._open_ops.get(0)

    def op_set(self, **fields) -> None:
        """Set identity fields (``client``/``path``/``nbytes``) on the
        current op record; silently a no-op without an oplog."""
        if self.oplog is None:
            return
        rec = self._current_op()
        if rec is None:
            self.oplog.orphan_annotations += 1
            return
        for name, value in fields.items():
            setattr(rec, name, value)

    def op_tag(self, tag: str) -> None:
        """Append an outcome tag to the current op record."""
        if self.oplog is None:
            return
        rec = self._current_op()
        if rec is None:
            self.oplog.orphan_annotations += 1
        else:
            rec.tag(tag)

    def op_count(self, name: str, by: int = 1) -> None:
        """Bump a named counter on the current op record."""
        if self.oplog is None:
            return
        rec = self._current_op()
        if rec is None:
            self.oplog.orphan_annotations += 1
        else:
            rec.count(name, by)

    # -- introspection -----------------------------------------------------
    def track_names(self) -> list[tuple[int, str]]:
        """``(tid, process name)`` pairs, sorted by tid."""
        return sorted((tid, name) for tid, name in self._tids.values())

    def tier_totals(self) -> dict[str, float]:
        """tier -> total exclusive seconds recorded."""
        return {t: h.stats.total for t, h in self.tier_stats.items()}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimTracer spans={len(self.spans)} tracks={len(self._tids)}>"
