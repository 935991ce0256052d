"""A unified metrics registry: named instruments per component.

Every simulated component (a CMCache translator, an SMCache translator,
an MCD engine, the fabric) records into a :class:`ComponentMetrics`
owned by the testbed's :class:`MetricsRegistry` instead of a private
``Counter()`` bag, under a dotted name (``cmcache.client0``).  The
registry hands out components and takes JSON-safe snapshots of them for
the exporters; a testbed's ``*_stats()`` views sum counter bags with
:func:`merged_counters`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.util.stats import Counter, Histogram, OnlineStats


class ComponentMetrics:
    """One component's instruments: counters, timers, histograms, series."""

    __slots__ = ("name", "counters", "timers", "histograms", "series")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counters = Counter()
        #: name -> streaming mean/min/max (latency observations).
        self.timers: dict[str, OnlineStats] = {}
        #: name -> log-bucketed distribution (percentile queries).
        self.histograms: dict[str, Histogram] = {}
        #: name -> [(sim time, value)] time series (fed by samplers).
        self.series: dict[str, list[tuple[float, float]]] = {}

    # -- recording ---------------------------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        self.counters.inc(name, by)

    def observe(self, name: str, value: float) -> None:
        self.timer(name).add(value)

    def sample(self, name: str, t: float, value: float) -> None:
        self.series.setdefault(name, []).append((t, value))

    # -- instrument access -------------------------------------------------
    def timer(self, name: str) -> OnlineStats:
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = OnlineStats()
        return stats

    def snapshot(self) -> dict:
        """JSON-safe digest of every instrument."""
        out: dict = {"counters": self.counters.as_dict()}
        if self.timers:
            out["timers"] = {
                name: {"n": s.n, "mean": s.mean, "min": s.min, "max": s.max, "total": s.total}
                for name, s in sorted(self.timers.items())
                if s.n
            }
        if self.histograms:
            out["histograms"] = {
                name: {"n": h.n, **h.summary()} for name, h in sorted(self.histograms.items())
            }
        if self.series:
            out["series"] = {
                name: [[t, v] for t, v in points]
                for name, points in sorted(self.series.items())
            }
        return out


class MetricsRegistry:
    """The testbed-wide registry of :class:`ComponentMetrics`."""

    def __init__(self, name: str = "testbed") -> None:
        self.name = name
        self.components: dict[str, ComponentMetrics] = {}

    def component(self, name: str) -> ComponentMetrics:
        """Get-or-create the component registered under *name*."""
        comp = self.components.get(name)
        if comp is None:
            comp = self.components[name] = ComponentMetrics(name)
        return comp

    def snapshot(self) -> dict[str, dict]:
        """``{component name: snapshot}`` for every component."""
        return {name: self.components[name].snapshot() for name in sorted(self.components)}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricsRegistry {self.name!r} components={len(self.components)}>"


def merged_counters(counters: Iterable[Optional[Counter]]) -> dict[str, int]:
    """Merge Counter bags (skipping ``None``) into one plain dict."""
    total = Counter()
    for c in counters:
        if c is not None:
            total.merge(c)
    return total.as_dict()
