"""cProfile wrapper for ``repro bench --profile``: hot-path triage.

The bench suite answers "how fast"; this module answers "where does
the time go".  ``repro bench --profile [N]`` wraps the whole suite in
:mod:`cProfile` and emits the top-N functions by cumulative
time, both as a text table on stdout and as a JSON artifact next to
the report (``<report>.profile.json``) so regressions in the *shape*
of the profile can be diffed across commits, not just the totals.

Profiling adds interpreter overhead (roughly 1.3-2x on this kernel's
call-heavy paths), so a profiled run never writes the benchmark report
or participates in the regression gate — the numbers would gate
the profiler, not the kernel.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any

#: Default table depth.
TOP_DEFAULT = 25


def profile_suite(fn) -> tuple[Any, cProfile.Profile]:
    """Run ``fn()`` under cProfile; returns (result, profiler)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, profiler


def top_functions(profiler: cProfile.Profile, top: int = TOP_DEFAULT) -> list[dict]:
    """Flatten profiler stats into JSON-safe rows, hottest (by
    cumulative time) first."""
    stats = pstats.Stats(profiler)
    rows = []
    for (path, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
                "function": func,
                "file": path,
                "line": line,
            }
        )
    rows.sort(key=lambda r: (-r["cumtime_s"], r["file"], r["line"]))
    return rows[: max(1, top)]


def render_profile(rows: list[dict]) -> str:
    """Fixed-width text table, pstats-style, for terminal triage."""
    lines = [
        f"{'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function",
    ]
    for r in rows:
        loc = f"{r['file']}:{r['line']}({r['function']})"
        lines.append(
            f"{r['ncalls']:>10} {r['tottime_s']:>9.3f} {r['cumtime_s']:>9.3f}  {loc}"
        )
    return "\n".join(lines)


def profile_artifact(top: int, rows: list[dict]) -> dict:
    """JSON artifact shape for ``<report>.profile.json``."""
    return {"schema": 1, "top": top, "rows": rows}
