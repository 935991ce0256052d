"""Determinism under faults: schedule + seed fully determine a run.

Byte-exact reproducibility is the repo's core invariant; injected
faults must preserve it — across repeat runs in one process, and across
``--jobs N`` worker processes.
"""

from repro.harness.chaos import _rate_job
from repro.harness.parallel import job_pool, pmap
from repro.util.units import KiB, MiB

P = dict(
    num_clients=2,
    num_mcds=2,
    files_per_client=2,
    file_size=8 * KiB,
    record_size=2 * KiB,
    rounds=6,
    mcd_memory=8 * MiB,
    window=8e-3,
    mean_downtime=1e-3,
    cooldown=2e-3,
    seed=0xC405,
)
RATE = 600.0


def test_same_schedule_and_seed_reproduce_identical_runs():
    a = _rate_job(P, RATE, 0)
    b = _rate_job(P, RATE, 1)
    assert a["fault_log"] > 0, "the schedule must actually inject faults"
    assert a["schedule_hash"] == b["schedule_hash"]
    assert a["metrics_hash"] == b["metrics_hash"]
    assert a["fingerprint"] == b["fingerprint"]
    assert a["hit_rate"] == b["hit_rate"]
    assert a["read_lat"] == b["read_lat"]


def test_different_seed_changes_the_run():
    a = _rate_job(P, RATE, 0)
    b = _rate_job(dict(P, seed=P["seed"] + 1), RATE, 0)
    assert a["schedule_hash"] != b["schedule_hash"]
    assert a["metrics_hash"] != b["metrics_hash"]


def test_worker_processes_match_in_process_runs():
    inline = pmap(_rate_job, [(P, RATE, 0)])
    with job_pool(2):
        pooled = pmap(_rate_job, [(P, RATE, 0), (P, RATE, 1)])
    assert pooled[0]["metrics_hash"] == inline[0]["metrics_hash"]
    assert pooled[1]["metrics_hash"] == inline[0]["metrics_hash"]
    assert pooled[0]["fingerprint"] == inline[0]["fingerprint"]
