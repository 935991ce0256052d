"""Python-call budgets of the warm cached read and the stat hit: the
host-side twin of ``test_event_budget.py``.

A warm read costs the simulator no extra scheduler entries per extra
cached block, so what a block costs is Python calls.  ``sys.setprofile``
``call`` events in ``src/repro`` frames are counted for a warm 2 KiB
and a warm 16 KiB read on a 1-client, 1-MCD testbed (one MCD, so both
reads are one batch to one daemon and the difference is seven blocks,
nothing else).  Frames whose code name starts with ``<`` (``<genexpr>``,
``<listcomp>``, ``<lambda>``) are skipped: which comprehensions get a
frame differs between 3.10, 3.11 and 3.12.  A generator resume is a
``call`` event, as in the benchmark's cProfile ledger.

Lower a number when a change removes calls; never raise one without
saying why in CHANGES.md.
"""

import os
import sys

import repro
from repro import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.util.units import KiB, MiB

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Named calls per op at ``IMCaConfig()`` defaults.
BUDGET = {
    "warm_read_2k": 76,  # 86 before a timed wait was a float and a hop one pass
    "warm_read_16k": 97,  # 107
    "stat_hit": 72,  # 82
}
#: (warm_read_16k - warm_read_2k) / 7: what one more cached block costs.
PER_EXTRA_BLOCK = 3


def _count_calls(sim, op_gen):
    """Run *op_gen* to completion on *sim*; the number of named
    ``repro`` frames entered meanwhile."""
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SRC) and not code.co_name.startswith("<"):
                calls += 1

    done = sim.process(op_gen)
    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert done.triggered
    return calls, done.value


def test_warm_read_costs_its_call_budget_and_at_most_four_calls_per_extra_block():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=1, mcd_memory=8 * MiB, imca=IMCaConfig())
    )
    sim, client = tb.sim, tb.clients[0]
    opened = []

    def warm():
        fd = yield from client.create("/warm")
        yield from client.write(fd, 0, 64 * KiB)
        yield from client.close(fd)
        fd = yield from client.open("/warm")
        yield from client.read(fd, 0, 64 * KiB)
        opened.append(fd)

    sim.process(warm())
    sim.run()
    (fd,) = opened

    spent = {}
    for name, size in (("warm_read_2k", 2 * KiB), ("warm_read_16k", 16 * KiB)):
        hits = tb.cm_stats().get("read_hits", 0)
        spent[name], result = _count_calls(sim, client.read(fd, 16 * KiB, size))
        assert result.size == size
        assert tb.cm_stats()["read_hits"] == hits + 1

    hits = tb.cm_stats().get("stat_hits", 0)
    spent["stat_hit"], _ = _count_calls(sim, client.stat("/warm"))
    assert tb.cm_stats()["stat_hits"] == hits + 1

    extra = spent["warm_read_16k"] - spent["warm_read_2k"]
    assert extra % 7 == 0, spent
    assert extra // 7 <= 4, spent
    assert extra // 7 == PER_EXTRA_BLOCK, spent
    assert spent == BUDGET
