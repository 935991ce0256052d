"""Tests for the verified-workload kit (repro.harness.scenario) and for
the equivalence that lets each feature job be its own instrumented pass.
"""

import hashlib
import math
from types import SimpleNamespace

import pytest

from repro.harness import chaos, elasticity, fastpath, scenario
from repro.harness.hotspot import _hot_job
from repro.harness.params import params_for
from repro.harness.scenario import Probe, p99, payload
from repro.net.rpc import RpcUnavailable
from repro.obs.context import Observability


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------- #
# payload / p99 / testbed
# --------------------------------------------------------------------------- #
def test_payload_reproduces_the_bytes_each_module_used_to_write():
    """sha256 of what the pre-kit per-module ``_payload`` helpers
    returned for one pinned argument tuple each: file contents (and so
    every content digest) must not move."""
    assert payload(4, 254) == bytes([254, 255, 0, 1])
    # chaos _payload(rank=1, j=2, 64); elastic (1, 2, 32) + scratch
    # (rank=1, r=3, 16); fastpath (1, 0, 32) + scratch (1, b=2, r=3, 16).
    assert _sha(chaos._contents({"file_size": 64}, 1, 2)) == (
        "9afaeef005e286957ee9a18a2481a75c7fc7ba74bae8de50ffa6127b12a62cae"
    )
    assert _sha(elasticity._contents({"file_size": 32}, 1, 2)) == (
        "336adc7956439f25f7ea20b654ef958197b8150fb0b2dda7f9004cf81ebcbbe9"
    )
    assert _sha(elasticity._scratch({"record_size": 16}, 1, 3)) == (
        "d9b9390d7ef74c0176d7178e4cd390ca24e16dec4d7e221495fd50a22b9c13e4"
    )
    assert _sha(fastpath._contents({"file_size": 32}, 1, 0)) == (
        "8ace682be77aa373e1b0c9ba4744835814c386203c24d5ba7b0ea3416fc8d2a5"
    )
    assert _sha(fastpath._scratch({"record_size": 16}, 1, 2, 3)) == (
        "36084838e632d403e13630745f096287d6bcb9d947e56f010add524d758770bb"
    )
    # hotspot _payload(j=3, 32) and readpath _payload(j=2, 32): the
    # phase expressions are inline in those modules' jobs.
    assert _sha(payload(32, (41 * 3 + 7) % 251)) == (
        "bc502cdfcb51fdac14efc99085be016dbd49f17963ba4ac88db68931eabc321b"
    )
    assert _sha(payload(32, (67 * 2 + 13) % 251)) == (
        "947f53d5ac5b567408d1fbf6433d6fad632daa8265f39d2464fb473292354343"
    )


@pytest.mark.parametrize("n", [0, 1, 100, 101])
def test_p99_is_nearest_rank(n):
    samples = [float((7 * i) % n) for i in range(n)]  # a permutation of 0..n-1
    want = sorted(samples)[math.ceil(0.99 * n) - 1] if n else 0.0
    assert p99(samples) == want
    assert p99(samples) == {0: 0.0, 1: 0.0, 100: 98.0, 101: 99.0}[n]


def test_testbed_resilience_is_the_fail_fast_policy_and_absent_without_mcds():
    p = dict(
        num_clients=2, num_mcds=2, mcd_memory=1 << 20,
        mcd_timeout=3e-3, cooldown=4e-3, seed=0xABC,
    )
    # (by module: pytest would collect a bare `testbed` as a test)
    res = scenario.testbed(p, resilient=True).config.resilience
    assert (res.mcd_retries, res.eject_after) == (0, 2)
    assert (res.mcd_timeout, res.cooldown, res.seed) == (3e-3, 4e-3, 0xABC)
    assert scenario.testbed(p).config.resilience is None
    off = scenario.testbed(p, clients=1, mcds=0, resilient=True)
    assert off.config.resilience is None
    assert (len(off.clients), len(off.mcds)) == (1, 0)


# --------------------------------------------------------------------------- #
# Probe, against fake clients (generator ops that never yield)
# --------------------------------------------------------------------------- #
class _FakeClient:
    def __init__(self, contents: bytes, *, stat_size=None, fail=None):
        self.contents = contents
        self.stat_size = len(contents) if stat_size is None else stat_size
        self.fail = fail

    def stat(self, path):
        return SimpleNamespace(size=self.stat_size)
        yield

    def read(self, fd, off, n):
        if self.fail is not None:
            raise self.fail
        return SimpleNamespace(data=self.contents[off : off + n])
        yield


def _finish(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def _fake_tb(*clients):
    return SimpleNamespace(sim=SimpleNamespace(now=0.0), clients=list(clients))


def test_probe_flags_a_corrupted_byte_and_a_wrong_stat_size():
    good = payload(64, 5)
    bad = bytearray(good)
    bad[17] ^= 1
    probe = Probe(_fake_tb(_FakeClient(good), _FakeClient(bytes(bad), stat_size=63)))
    _finish(probe.stat(0, "/f", 64))
    _finish(probe.read(0, 3, 0, good[:32]))
    assert (probe.ops, probe.errors, probe.mismatches) == (2, 0, 0)
    _finish(probe.stat(1, "/f", 64))  # wrong size
    _finish(probe.read(1, 3, 0, good[:16]))  # clean prefix
    _finish(probe.read(1, 3, 16, good[16:32]))  # holds the flipped byte
    assert (probe.ops, probe.errors, probe.mismatches) == (5, 0, 2)
    assert len(probe.stat_lat) == 2 and len(probe.read_lat) == 3


def test_probe_fingerprint_ignores_how_ranks_interleave():
    def run(order):
        data = [payload(32, 1), payload(32, 2)]
        probe = Probe(_fake_tb(_FakeClient(data[0]), _FakeClient(data[1])))
        for rank, off in order:
            _finish(probe.read(rank, 3, off, data[rank][off : off + 8]))
        return probe.fingerprint

    a = run([(0, 0), (0, 8), (1, 0), (1, 8)])
    b = run([(1, 0), (0, 0), (1, 8), (0, 8)])
    assert a == b
    assert a != run([(0, 8), (0, 0), (1, 0), (1, 8)])  # per-rank order counts


def test_probe_counts_client_failures_and_lets_harness_bugs_propagate():
    down = _FakeClient(b"x" * 8, fail=RpcUnavailable("mcd down"))
    probe = Probe(_fake_tb(down))
    assert _finish(probe.read(0, 3, 0, b"x" * 8)) is None
    assert (probe.ops, probe.errors, probe.mismatches) == (0, 1, 0)
    assert probe.read_lat == []

    buggy = Probe(_fake_tb(_FakeClient(b"x" * 8, fail=KeyError("typo"))))
    with pytest.raises(KeyError):
        _finish(buggy.read(0, 3, 0, b"x" * 8))
    assert buggy.errors == 0


# --------------------------------------------------------------------------- #
# The instrumented pass is the job: traced runs equal plain runs
# --------------------------------------------------------------------------- #
def test_hot_job_is_its_own_instrumented_pass():
    p = params_for("hotspot", "smoke")
    p.update(hot_clients=4, hot_rounds=5)
    plain = _hot_job(p, 2)
    obs = Observability("hotspot", trace=True, oplog=True)
    assert _hot_job(p, 2, obs) == plain
    assert plain["mismatches"] == plain["errors"] == 0
    # The op log's tail is exactly the ops the job timed.
    timed = list(obs.oplog.records)[-2 * plain["samples"] :]
    assert plain["samples"] == 4 * 5
    assert sorted(r.op for r in timed) == (
        ["client.read"] * plain["samples"] + ["client.stat"] * plain["samples"]
    )


def test_variant_job_is_its_own_instrumented_pass():
    p = params_for("elastic", "smoke")
    p.update(files_per_client=4, rounds_after=3, warm_rounds=1)
    plain = elasticity._variant_job(p, "ketama-add", 0)
    obs = Observability("elastic", trace=True, oplog=True)
    traced = elasticity._variant_job(p, "ketama-add", 0, obs)
    # The tracer registers components of its own, so only the registry
    # hash may differ.
    assert plain.pop("metrics_hash") != traced.pop("metrics_hash")
    assert traced == plain
    tags = {t for r in obs.oplog.records for t in r.tags}
    assert "resize-forward" in tags
