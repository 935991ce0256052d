"""Every registered experiment as one pytest-benchmark case.

The cases come from the registry, so the paper's figures, the
ablations, the motivation experiments and the feature experiments are
all covered, and a newly registered experiment is picked up without a
new file.  Each case runs once, prints its series table and check
verdicts, and fails unless every check passes::

    PYTHONPATH=src pytest benchmarks/bench_experiments.py --benchmark-only
"""

import pytest
from conftest import run_experiment

from repro.harness import all_experiments


@pytest.mark.parametrize("exp_id", [exp.id for exp in all_experiments()])
def test_experiment(benchmark, scale, exp_id):
    run_experiment(benchmark, exp_id, scale)
