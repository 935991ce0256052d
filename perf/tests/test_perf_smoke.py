"""Smoke test of the benchmark itself (``python -m pytest perf/tests -q``;
outside tier-1's ``testpaths``)."""

import ast
import json
import os
import re
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(PERF_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Latencies of one kind of operation: reported only by the workloads that
#: issue that kind.
PER_KIND = re.compile(r"sim_(read|stat|write)_p\d+_us\Z")


def _benchmark() -> dict:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_quick_run_reports_every_named_metric(tmp_path):
    spec = _benchmark()
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--quick", "--out", str(out)],
        cwd=REPO_DIR, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(out.read_text())["workloads"]

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(results)
    assert len(results) == 5
    assert len(spec["end_to_end"]) <= 16
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert m["unit"]
        # Printed by name with its unit, once per workload that has it.
        line = re.compile(rf"^  {re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$", re.M)
        kind = PER_KIND.match(m["name"])
        workloads_with_it = {"read": 4, "stat": 2, "write": 1}[kind.group(1)] if kind else 5
        assert len(line.findall(proc.stdout)) == workloads_with_it, m["name"]
    for name, result in results.items():
        assert result["failed"] == 0, name
        assert result["end_to_end"]["failed_op_share"] == 0, name
        for m in spec["end_to_end"]:
            assert result["end_to_end"][m["name"]] > 0, (name, m["name"])
        reported = {**result["end_to_end"], **result["per_layer"]}
        for m in spec["per_layer"]:
            if PER_KIND.match(m["name"]):
                # Omitted, never 0, where the workload issues no such operation.
                assert reported.get(m["name"], 1) > 0, (name, m["name"])
            else:
                assert m["name"] in reported, (name, m["name"])
        layers = [v for k, v in result["per_layer"].items() if k.endswith(".host_self_share")]
        assert abs(sum(layers) - 1) < 0.01, name

    bypass = results["nocache_read"]["per_layer"]
    for key, value in bypass.items():
        if key.startswith(("core.", "memcached.")):
            assert value == 0, key
    for name in ("read_hit", "stat_storm"):
        assert results[name]["per_layer"]["gluster.server_fops_per_op"] == 0
    assert "sim_write_p50_us" not in results["read_hit"]["end_to_end"]
    assert "sim_read_p99_us" not in results["stat_storm"]["end_to_end"]
    assert {"sim_read_p50_us", "sim_stat_p50_us", "sim_write_p50_us"} <= set(
        results["write_mix"]["end_to_end"]
    )


def test_contract_lines_carry_exactly_the_listed_metrics():
    spec = _benchmark()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload", "stat_storm",
             "--quick", "--seed", "3", "--trace", str(trace)],
            cwd=REPO_DIR, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
        for m in spec[section]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
    # The last line read was --trace 1 of a workload that only stats.
    assert line["metrics"]["sim_stat_p50_us"]["value"] > 0
    assert line["metrics"]["sim_write_p50_us"]["value"] == 0


def test_calibration_imports_nothing_from_repro():
    with open(os.path.join(PERF_DIR, "calibrate.py")) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "time", "heapq"}, imported
