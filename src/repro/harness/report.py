"""Plain-text rendering for experiment results: tables and series."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.util.units import fmt_rate, fmt_time


def render_table(
    rows: Sequence[dict],
    columns: Sequence[tuple[str, str, Callable[[Any], str] | None]],
) -> str:
    """Render rows as an aligned ASCII table.

    *columns* is ``[(key, header, formatter), ...]``; a ``None``
    formatter stringifies.
    """
    def fmt(value: Any, formatter) -> str:
        if value is None:
            return "-"
        return formatter(value) if formatter else str(value)

    headers = [h for _, h, _ in columns]
    body = [[fmt(row.get(k), f) for k, _, f in columns] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


#: How each series unit renders: durations and bandwidths scaled to a
#: readable unit, rates of whole things rounded, ratios and counts plain.
UNIT_FORMATS: dict[str, Callable[[float], str]] = {
    "s": fmt_time,
    "B/s": fmt_rate,
    "ops/s": lambda x: f"{x:.0f} ops/s",
    "files/s": lambda x: f"{x:.0f} files/s",
    "ratio": lambda x: f"{x:.3f}",
    "count": lambda x: f"{x:g}",
}


def render_series_table(
    x_name: str,
    x_values: Sequence[Any],
    series: dict[str, Sequence[float]],
    units: dict[str, str] | None = None,
) -> str:
    """Render one row per x value, one column per series (figure style).

    *units* maps a series name to a :data:`UNIT_FORMATS` key; a series
    it does not name is in seconds.
    """
    units = units or {}
    rows = []
    for i, x in enumerate(x_values):
        row = {"x": x}
        for name, ys in series.items():
            row[name] = ys[i] if i < len(ys) and ys[i] is not None else None
        rows.append(row)
    columns: list[tuple[str, str, Callable | None]] = [("x", x_name, str)]
    for name in series:
        columns.append((name, name, UNIT_FORMATS[units.get(name, "s")]))
    return render_table(rows, columns)


def pct_change(base: float, new: float) -> float:
    """Reduction of *new* vs *base* in percent (positive = improvement)."""
    if base == 0:
        return 0.0
    return (base - new) / base * 100.0
