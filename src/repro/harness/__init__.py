"""The experiment harness: registry, runners, reporting.

Run a single figure::

    from repro.harness import get
    result = get("fig5").run("default")
    print(result.summary())

or everything (used to regenerate EXPERIMENTS.md)::

    from repro.harness import run_all
    results = run_all("smoke")
"""

from repro.harness.experiment import (
    Check,
    Experiment,
    ExperimentResult,
    SCALES,
    all_experiments,
    get,
)
from repro.harness.params import params_for
from repro.harness.report import pct_change, render_series_table, render_table


def run_all(scale: str = "smoke", ids: list[str] | None = None) -> list[ExperimentResult]:
    """Run every registered experiment (or the given ids) at *scale*."""
    out = []
    for exp in all_experiments():
        if ids is not None and exp.id not in ids:
            continue
        out.append(exp.run(scale))
    return out


__all__ = [
    "Check",
    "Experiment",
    "ExperimentResult",
    "SCALES",
    "all_experiments",
    "get",
    "run_all",
    "params_for",
    "render_table",
    "render_series_table",
    "pct_change",
]
