"""Tests for the tenants experiment harness (registration, params, and
a trimmed end-to-end run of the job function)."""

import pytest

from repro.harness.experiment import all_experiments, get
from repro.harness.params import params_for
from repro.harness.tenants import CASES, _job


def test_tenants_experiment_registered():
    """Registration (test_harness's smoke sweep runs the experiment
    itself)."""
    ids = {e.id for e in all_experiments()}
    assert "tenants" in ids
    assert get("tenants").figure == "ROADMAP item 2"


def test_case_list_shape():
    assert CASES == (
        ("mix", "vanilla"),
        ("mix", "arbitrated"),
        ("sla", "vanilla"),
        ("sla", "floor"),
    )


@pytest.mark.parametrize("scale", ["smoke", "default", "paper"])
def test_tenants_params_coherent(scale):
    p = params_for("tenants", scale)
    for scenario in ("mix", "sla"):
        s = p[scenario]
        names = [t["name"] for t in s["tenants"]]
        assert len(set(names)) == len(names)
        floors = sum(t.get("reserved_frac", 0.0) for t in s["tenants"])
        assert floors < 1.0
        # Live demand must exceed capacity several-fold, else there is
        # no memory pressure and nothing to arbitrate.
        demand = sum(
            t["num_files"] * max(1, t.get("file_size", 8192) // t.get("record_size", 2048))
            * t.get("record_size", 2048)
            for t in s["tenants"]
        )
        assert demand > 2 * s["num_mcds"] * s["mcd_memory"]
    # The SLA tenant leads its scenario and actually reserves something.
    assert p["sla"]["tenants"][0].get("reserved_frac", 0) > 0
    assert p["quantum"] >= 1 and p["rebalance_ops"] >= 1 and p["ghost_entries"] >= 1


def _tiny_params():
    p = params_for("tenants", "smoke")
    p = dict(p)
    p["mix"] = dict(p["mix"], operations=300)
    p["sla"] = dict(p["sla"], operations=300)
    return p


def test_job_rows_and_determinism():
    p = _tiny_params()
    van = _job(p, "mix", "vanilla", 0)
    arb = _job(p, "mix", "arbitrated", 0)
    again = _job(p, "mix", "arbitrated", 1)
    # vanilla arm never arbitrates; arbitrated arm never breaches
    assert van["arbiter"]["rebalances"] == 0
    assert van["arbiter"]["bytes_reassigned"] == 0
    assert arb["arbiter"]["floor_breaches"] == 0
    for row in (van, arb):
        assert set(row["delta"]) == {"hot", "warm", "scan"}
        for d in row["delta"].values():
            assert 0.0 <= d["hit_rate"] <= 1.0
    # identical params + seed => byte-identical metrics across runs
    assert arb["metrics_hash"] == again["metrics_hash"]
    assert arb["delta"] == again["delta"]


def test_sla_floor_job_holds_reservation_even_trimmed():
    p = _tiny_params()
    row = _job(p, "sla", "floor", 0)
    sla = row["tenants"]["sla"]
    assert row["arbiter"]["floor_breaches"] == 0
    assert sla["reserved_bytes"] > 0
