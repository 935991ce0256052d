"""Tests for the elasticity experiment harness (registration, params,
and a trimmed end-to-end run)."""

import pytest

from repro.harness.elasticity import VARIANTS, _variant_job
from repro.harness.experiment import all_experiments, get
from repro.harness.params import params_for


def test_elastic_experiment_registered():
    """Registration and params coverage (test_harness's smoke sweep
    runs the experiment itself)."""
    ids = {e.id for e in all_experiments()}
    assert "elastic" in ids
    assert get("elastic").figure == "ROADMAP item 5"


@pytest.mark.parametrize("scale", ["smoke", "default", "paper"])
def test_elastic_params_coherent(scale):
    p = params_for("elastic", scale)
    assert p["num_mcds"] >= 2  # drain/remove need survivors
    assert 0 < p["window_rounds"] < 1  # the window must close mid-round
    assert p["rounds_before"] >= 1 and p["rounds_after"] >= 2
    assert p["naive_dip_min"] > 0 and p["cold_dip_min"] > p["naive_dip_min"] - 0.2
    assert p["file_size"] % p["record_size"] == 0
    # The whole working set must fit: capacity evictions would pollute
    # the dip measurement with unrelated misses.
    working_set = p["num_clients"] * (p["files_per_client"] + 1) * p["file_size"]
    assert working_set < p["mcd_memory"] * p["num_mcds"] / 2


def test_variant_list_shape():
    assert VARIANTS[0] == "baseline"
    assert {"ketama-add", "ketama-add-migrate", "naive-add",
            "cold-restart", "drain-migrate", "remove", "chaos-add"} == set(VARIANTS[1:])


def _tiny_params():
    p = params_for("elastic", "smoke")
    p.update(files_per_client=4, rounds_after=3, warm_rounds=1)
    return p


def test_variant_job_baseline_vs_resize():
    """One trimmed pass of the job function: the baseline never dips,
    the resize variants stay byte-identical to it."""
    p = _tiny_params()
    base = _variant_job(p, "baseline", 0)
    add = _variant_job(p, "ketama-add", 0)
    assert base["mismatches"] == add["mismatches"] == 0
    assert base["errors"] == add["errors"] == 0
    assert add["fingerprint"] == base["fingerprint"]
    assert len(base["rates"]) == p["rounds_before"] + p["rounds_after"]
    assert min(base["rates"]) > 0.9  # warm baseline: no dip
    assert add["members"][p["num_mcds"]] == "live"
    assert add["elastic"]["adds"] == 1


def test_variant_job_is_deterministic():
    p = _tiny_params()
    a = _variant_job(p, "remove", 0)
    b = _variant_job(p, "remove", 1)
    assert a["metrics_hash"] == b["metrics_hash"]
    assert a["fingerprint"] == b["fingerprint"]
    assert a["rates"] == b["rates"]
