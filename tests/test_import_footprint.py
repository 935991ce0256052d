"""What a default run loads: the code it executes, and no numpy.

numpy is only needed to draw from a named random stream
(:class:`~repro.sim.rand.RandomStreams`), and only a testbed with a
``ResilienceConfig``, a fault schedule or a trace or tenant generator
draws from one.  Mapping it anyway costs every run about 12 MiB of
resident memory.  Each check runs in a fresh interpreter, since this
one has long since imported numpy for other tests.
"""

import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Build a testbed and run create, write, close, open, stat and read on
#: its first client.  ``{config}`` is the ``TestbedConfig`` arguments.
_OPS = """
from repro import TestbedConfig, build_gluster_testbed
from repro.cluster import ResilienceConfig

tb = build_gluster_testbed(TestbedConfig({config}))
client = tb.clients[0]
done = []

def ops():
    fd = yield from client.create("/f")
    yield from client.write(fd, 0, 8192)
    yield from client.close(fd)
    fd = yield from client.open("/f")
    st = yield from client.stat("/f")
    r = yield from client.read(fd, 0, 8192)
    done.append((st.size, r.size))

tb.sim.process(ops())
tb.sim.run()
assert done == [(8192, 8192)], done
"""


def _loads_numpy(code: str) -> bool:
    """Run *code* in a fresh interpreter; whether it left numpy loaded."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_a_default_testbed_runs_its_ops_without_loading_numpy():
    assert not _loads_numpy(_OPS.format(config=""))


def test_the_figure_sweeps_import_without_numpy():
    assert not _loads_numpy("import repro.harness.sweep")


def test_a_resilient_testbed_still_draws_from_numpy_streams():
    assert _loads_numpy(_OPS.format(config="resilience=ResilienceConfig()"))
