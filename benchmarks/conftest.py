"""Shared plumbing for the experiment benchmarks.

``bench_experiments.py`` regenerates every registered experiment
through the harness and reports its checks via pytest-benchmark's
``extra_info``.  Scale defaults to ``smoke`` so the whole suite runs in
under a minute; set ``REPRO_BENCH_SCALE=default`` (or ``paper``) for
publication-shaped curves::

    REPRO_BENCH_SCALE=default pytest benchmarks/ --benchmark-only
"""

import os

import pytest

from repro.harness import get, render_series_table


@pytest.fixture(scope="session")
def scale() -> str:
    value = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    if value not in ("smoke", "default", "paper"):
        raise ValueError(f"bad REPRO_BENCH_SCALE {value!r}")
    return value


def run_experiment(benchmark, exp_id: str, scale: str):
    """Run one experiment under pytest-benchmark and record its series."""
    exp = get(exp_id)
    result = benchmark.pedantic(exp.run, args=(scale,), rounds=1, iterations=1)
    benchmark.extra_info["figure"] = exp.figure
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["checks"] = [
        ("PASS" if c.passed else "FAIL", c.name, c.detail) for c in result.checks
    ]
    table = render_series_table(result.x_name, result.x_values, result.series, result.units)
    print(f"\n== {exp.figure}: {exp.title} [{scale}] ==")
    print(table)
    for c in result.checks:
        print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name} -- {c.detail}")
    # Every scale passes every check: claims a scale cannot show are
    # declared out of reach in its params, not emitted as failures.
    assert result.all_passed, result.summary()
    return result
