"""`repro <id>` is bound from the experiment registry, not restated."""

import pytest

from repro.cli import build_parser, cmd_run
from repro.harness import all_experiments

FEATURE_IDS = ["chaos", "hotspot", "readpath", "elastic", "tenants", "fastpath"]
RUN_FLAGS = ["--scale", "smoke", "--json", "--jobs", "2"]


@pytest.mark.parametrize("exp_id", FEATURE_IDS)
def test_sugar_command_parses_like_run(exp_id):
    parser = build_parser()
    sugar = vars(parser.parse_args([exp_id, *RUN_FLAGS]))
    run = vars(parser.parse_args(["run", exp_id, *RUN_FLAGS]))
    assert sugar.pop("command") == exp_id and run.pop("command") == "run"
    # Each form keeps the one flag the other never had.
    assert run.pop("selector") is None
    if exp_id == "chaos":
        assert sugar.pop("replicas") == 1
    assert sugar == run
    assert sugar["func"] is cmd_run and sugar["experiment"] == exp_id


def test_every_registered_experiment_is_a_subcommand_described_by_the_registry():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    for exp in all_experiments():
        assert subparsers.choices[exp.id].description == exp.description
    assert not hasattr(parser.parse_args(["hotspot"]), "replicas")

