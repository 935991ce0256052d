"""Tests for the parallel sweep executor.

The load-bearing property is *determinism*: a pool must change nothing
but wall-clock time.  Jobs merge by submission index, every job owns an
isolated simulator, and the CLI contract is that ``--jobs N`` output is
byte-identical to ``--jobs 1``.
"""

import io
import pickle
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro import cli
from repro.cluster import TestbedConfig
from repro.harness.experiment import Check, ExperimentResult
from repro.harness.parallel import configured_jobs, job_pool, pmap, resolve_jobs
from repro.harness.sweep import Point, measure
from repro.util.units import KiB


# --------------------------------------------------------------------------- #
# pmap / job_pool mechanics
# --------------------------------------------------------------------------- #
def _square(x):
    return x * x


def _fail_on(x, bad):
    if x == bad:
        raise ValueError(f"boom at {x}")
    return x


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) >= 1  # all cores
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_pmap_sequential_without_pool():
    assert configured_jobs() == 1
    assert pmap(_square, [(i,) for i in range(6)]) == [0, 1, 4, 9, 16, 25]


def test_pmap_preserves_submission_order_under_pool():
    with job_pool(3):
        assert configured_jobs() == 3
        assert pmap(_square, [(i,) for i in range(20)]) == [
            i * i for i in range(20)
        ]
    assert configured_jobs() == 1  # pool state restored


def test_job_pool_of_one_stays_inline():
    with job_pool(1) as jobs:
        assert jobs == 1
        assert pmap(_square, [(3,)]) == [9]


def test_pmap_propagates_job_exception():
    with pytest.raises(ValueError, match="boom at 2"):
        pmap(_fail_on, [(i, 2) for i in range(4)])
    with job_pool(2):
        with pytest.raises(ValueError, match="boom at 2"):
            pmap(_fail_on, [(i, 2) for i in range(4)])


def test_nested_pools_restore_outer():
    with job_pool(2):
        with job_pool(4):
            assert configured_jobs() == 4
        assert configured_jobs() == 2
    assert configured_jobs() == 1


# --------------------------------------------------------------------------- #
# picklability of harness types (workers receive points, return results)
# --------------------------------------------------------------------------- #
def test_experiment_result_pickle_round_trip():
    result = ExperimentResult("fig0", "smoke", x_name="clients", x_values=[1, 2])
    result.series["a"] = [0.5, 0.25]
    result.notes.append("n")
    result.extras["k"] = {"nested": [1, 2]}
    result.check("sanity", True, "detail")
    clone = pickle.loads(pickle.dumps(result))
    assert clone.to_dict() == result.to_dict()
    assert clone.checks[0].name == "sanity" and clone.checks[0].passed


def test_check_pickle_round_trip():
    c = Check("name", False, "why")
    clone = pickle.loads(pickle.dumps(c))
    assert (clone.name, clone.passed, clone.detail) == ("name", False, "why")


def test_sweep_point_pickles_and_measures_identically_under_pool():
    lat = dict(record_sizes=[1, 2 * KiB], records_per_size=4)
    points = [
        Point("gluster", TestbedConfig(), "latency", lat),  # NoCache
        Point("gluster", TestbedConfig(num_mcds=1), "latency", lat),  # IMCa
    ]
    for point in points:
        assert pickle.loads(pickle.dumps(point)) == point
    inline = pmap(measure, [(pt,) for pt in points])
    with job_pool(2):
        pooled = pmap(measure, [(pt,) for pt in points])
    assert pooled == inline
    nocache, imca = inline
    assert nocache["total_items"] == [] and nocache["cm"] == {}
    assert len(imca["total_items"]) == 1 and imca["cm"]["read_hits"] > 0


# --------------------------------------------------------------------------- #
# end-to-end: --jobs N output is byte-identical to --jobs 1
# --------------------------------------------------------------------------- #
def _run_all_json(jobs: int) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        cli.main(["run-all", "--scale", "smoke", "--json", "--jobs", str(jobs)])
    return out.getvalue()


def test_run_all_parallel_output_byte_identical():
    sequential = _run_all_json(1)
    parallel = _run_all_json(4)
    assert parallel == sequential


def test_run_single_experiment_parallel_matches():
    def run(jobs):
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["run", "fig5", "--scale", "smoke", "--json", "--jobs", str(jobs)])
        return out.getvalue()

    assert run(3) == run(1)
