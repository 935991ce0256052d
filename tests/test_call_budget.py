"""Python-call budgets of the warm cached read, the stat hit and the
write side (a 4 KiB write, a close that purges, an open): the host-side
twin of ``test_event_budget.py``.

A warm read costs the simulator no extra scheduler entries per extra
cached block, so what a block costs is Python calls.  ``sys.setprofile``
``call`` events in ``src/repro`` frames are counted for a warm 2 KiB
and a warm 16 KiB read on a 1-client, 1-MCD testbed (one MCD, so both
reads are one batch to one daemon and the difference is seven blocks,
nothing else).  Frames whose code name starts with ``<`` (``<genexpr>``,
``<listcomp>``, ``<lambda>``) are skipped: which comprehensions get a
frame differs between 3.10, 3.11 and 3.12.  A generator resume is a
``call`` event, as in the benchmark's cProfile ledger.

The write side is budgeted on the same kind of testbed: a
4 KiB overwrite (two block pushes in one ``set_multi`` and the ``:stat``
refresh), the close that purges the file's 32 pushed blocks in one
``delete_multi``, and the open that follows (nothing left to purge; one ``:stat`` push) — so
a refactor of the store or purge path cannot add frames unseen.

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
    # 86 before a timed wait was a float and a hop one pass; 76 before
    # the one server table let ``_call`` index the membership directly
    # instead of asking ``_server_at`` which table to use; 75 while the
    # MCD's lookup and copy CPU were ``cpu.run`` visits of their own, two
    # more resumes of every frame in the ``yield from`` chain; 65 while
    # the multi-get's leg woke on its response (a resume of the strand,
    # ``_leg`` and ``Endpoint.call``) instead of landing it on the join;
    # 62 while the op slept on its FUSE crossing (``FifoStation.run``,
    # the wake's ``_resume`` and a resume of every frame of the op).
    "warm_read_2k": 56,
    "warm_read_16k": 77,  # 107, 97, 96, 86, 83
    "stat_hit": 42,  # 82, 72, 71 (no _stat_scalar / _get_scalar wrapper frames), 61, 47
    # Before every mutation walked one owner list: 358 / 663 / 149.
    # Routing a key was ``_window_targets`` + ``_replicas_for`` +
    # ``_idx_for`` + ``select``; it is ``owners`` + ``select``.
    # 355 while the two block pushes were two scalar sets under a join;
    # they are one ``set_multi`` request run in the caller's frame.
    # 331 / 598 / 148 while each MCD command yielded its own CPU visit.
    # 302 while the write slept on its FUSE crossing.  A close or an
    # open saves the wake's calls too, but pays them back: its fd-table
    # frame (``GlusterClient.close``/``open``) sits on the op's
    # ``_crossing`` frame, one more frame resumed on every wake.
    "write_4k": 296,
    "close": 585,
    "open": 136,
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


def _warm_testbed():
    """A 1-client, 1-MCD testbed holding ``/warm`` (64 KiB, every block
    cached) open; returns ``(tb, fd)``."""
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
    return tb, fd


def _budget_for(spent):
    return {name: BUDGET[name] for name in spent}


def test_warm_read_costs_its_call_budget_and_at_most_four_calls_per_extra_block():
    tb, fd = _warm_testbed()
    sim, client = tb.sim, tb.clients[0]

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
    assert spent == _budget_for(spent)


def test_write_close_and_open_cost_their_call_budgets():
    tb, fd = _warm_testbed()
    sim, client = tb.sim, tb.clients[0]

    spent = {}
    pushes = tb.sm_stats()["block_pushes"]
    spent["write_4k"], _ = _count_calls(sim, client.write(fd, 16 * KiB, 4 * KiB))
    assert tb.sm_stats()["block_pushes"] == pushes + 2
    purged = tb.sm_stats().get("purged_blocks", 0)
    spent["close"], _ = _count_calls(sim, client.close(fd))
    assert tb.sm_stats()["purged_blocks"] == purged + 32
    spent["open"], _ = _count_calls(sim, client.open("/warm"))
    assert tb.sm_stats()["purged_blocks"] == purged + 32
    assert spent == _budget_for(spent)
