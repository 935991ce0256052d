"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out
    assert "fig10" in out
    assert "ablation-blocksize" in out


def test_run_single_experiment(capsys):
    rc = main(["run", "fig6c", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "record size" in out
    assert "checks passed" in out
    assert rc == 0  # fig6c's checks hold at smoke scale


def test_list_includes_fault_and_replication_experiments(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "chaos" in out
    assert "hotspot" in out


def test_chaos_rejects_out_of_range_replicas(capsys):
    # 9 replicas can't fit the smoke-scale MCD count: graceful exit 2,
    # not a traceback (validated before any simulation runs).
    assert main(["chaos", "--scale", "smoke", "--replicas", "9"]) == 2
    assert "replicas" in capsys.readouterr().err


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_scale_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig5", "--scale", "enormous"])


def test_report_writes_file(tmp_path, capsys):
    # Point the report at a temp file; smoke scale keeps it quick.
    out_file = tmp_path / "EXP.md"
    rc = main(["report", "--scale", "smoke", "--output", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert "# EXPERIMENTS" in text
    assert "Fig 5" in text


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_run_json_output(capsys):
    rc = main(["run", "fig6c", "--scale", "smoke", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0
    assert doc["experiment_id"] == "fig6c"
    assert doc["scale"] == "smoke"
    assert doc["x_values"] and doc["series"]
    assert all({"name", "passed", "detail"} <= set(c) for c in doc["checks"])
    assert doc["all_passed"] is True


def test_run_trace_and_metrics_artifacts(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.jsonl"
    main(
        [
            "run",
            "fig5",
            "--scale",
            "smoke",
            "--trace-out",
            str(trace),
            "--metrics-out",
            str(metrics),
        ]
    )
    err = capsys.readouterr().err
    assert "wrote" in err

    events = json.loads(trace.read_text())
    assert events and all(e["ph"] in ("X", "M") for e in events)
    assert {"client", "network", "mcd", "server", "disk"} <= {
        e["cat"] for e in events if e["ph"] == "X"
    }

    components = [json.loads(line) for line in metrics.read_text().splitlines()]
    names = {c["component"] for c in components}
    assert "mcd" in names and "tiers" in names
    assert any(n.startswith("cmcache.") for n in names)


def test_run_prints_tier_breakdown(capsys):
    main(["run", "fig5", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert "per-tier latency breakdown" in out
    assert "disk" in out


def test_a_runner_type_error_propagates(monkeypatch):
    """Only a flag the runner's signature lacks exits 2; a TypeError
    raised inside a runner is a bug and must surface as one."""
    from repro.harness import experiment

    def runner(scale, selector="crc32"):
        raise TypeError("bad selector")

    experiment.all_experiments()  # load the registry before patching it
    monkeypatch.setitem(
        experiment._REGISTRY,
        "type-error-probe",
        experiment.Experiment("type-error-probe", "-", "-", "-", runner),
    )
    with pytest.raises(TypeError, match="bad selector"):
        main(["run", "type-error-probe", "--scale", "smoke"])
    with pytest.raises(TypeError, match="bad selector"):
        main(["run", "type-error-probe", "--scale", "smoke", "--selector", "ketama"])


def test_a_flag_the_runner_does_not_take_exits_2(capsys):
    assert main(["run", "chaos", "--selector", "ketama"]) == 2
    assert "error: chaos does not take --selector" in capsys.readouterr().err
