"""Python-call budgets of the warm cached read, the stat hit, the cold
read that pushes its blocks and the write side (a 4 KiB write, a close
that purges, an open, and a NoCache read that misses or hits the
server's page cache): the host-side twin of ``test_event_budget.py``.

A warm read costs the simulator no extra scheduler entries per extra
cached block, so what a block costs is Python calls.  ``sys.setprofile``
``call`` events in ``src/repro`` frames are counted for a warm 2 KiB
and a warm 16 KiB read on a 1-client, 1-MCD testbed (one MCD, so both
reads are one batch to one daemon and the difference is seven blocks,
nothing else).  Frames whose code name starts with ``<`` (``<genexpr>``,
``<listcomp>``, ``<lambda>``) are skipped: which comprehensions get a
frame differs between 3.10, 3.11 and 3.12.  A generator resume is a
``call`` event, as in the benchmark's cProfile ledger.

A cold read is budgeted the same way: ``/warm`` is closed and reopened
(its blocks purged), then read, so the server reads the blocks and
SMCache pushes them — one for 2 KiB, eight for 16 KiB, in one
``set_multi``.

The write side is budgeted on the same kind of testbed: a
4 KiB overwrite (two block pushes in one ``set_multi`` and the ``:stat``
refresh), the close that purges the file's 32 pushed blocks in one
``delete_multi``, and the open that follows (nothing left to purge; one ``:stat`` push) — so
a refactor of the store or purge path cannot add frames unseen.

A stat hit, a warm read, a cold read and a 4 KiB write enter no
``Counter`` frame at all: what they count are tallies, plain attributes
folded in when a counter is read.  A tally's first count enters one
frame, once (it puts the key in its counter where ``Counter.inc`` would
have), so the warm testbed runs a stat hit and a cached read before any
op is budgeted on it.

The brick path is budgeted alone on a NoCache testbed whose page cache
holds one 64 KiB file: a 16 KiB read of an evicted file, whose disk
wake resumes one frame per layer, then the same read again.

Lower a number when a change removes calls; never raise one without
saying why in CHANGES.md.
"""

import os
import sys

import repro
from repro import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.util.stats import Counter
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
    # the wake's ``_resume`` and a resume of every frame of the op); 56
    # while the leg was a strand driving ``_leg`` and ``Endpoint.call``
    # (``Strand.__init__``, two resumes of each, ``Landing``) and the
    # batch's size and reply each called ``key_nbytes``; 45 while each
    # message's ``transfer`` called ``delivery_time`` (two messages); 43
    # while ``assemble_blocks`` worked out the read's cover a second time
    # (``BlockMapper.cover``) instead of walking the found values in
    # cover order; 42 while its counts were seven ``Counter.inc`` calls
    # (``blocks_requested``, ``calls``, ``cmd_get``, ``get_hits``,
    # ``hits``, ``misses``, ``read_hits``; tallies now), the leg was
    # priced by ``request_size`` and, at the MCD, ``command_cpu`` (one
    # ``command_cost`` now), and the hot tier's gate was a
    # ``_hot_for`` call; 33 while the leg's healthy answer half was a
    # call of ``Endpoint._answer`` rather than the handler's, in line.
    # 32 while ``get_multi`` asked ``_read_memo`` for the owner memo.
    "warm_read_2k": 31,
    # 107, 97, 96, 86, 83, 77: the last three also paid 3 calls per
    # extra block (``KeyCache.data_key``, ``Crc32Selector.select``,
    # ``memcache_hash``) before the covering keys were one slice and
    # each key's owner was memoised.  45 with ``delivery_time``, 43 with
    # the second ``cover``, 42 with seven ``Counter.inc``, two pricing
    # calls and ``_hot_for``, 33 with ``_answer``, 32 with ``_read_memo``.
    "warm_read_16k": 31,
    # 82, 72, 71 (no _stat_scalar / _get_scalar wrapper frames), 61, 47,
    # 42 (the key's route was ``_read_route`` + ``select`` +
    # ``memcache_hash``; it is one memo probe), 40 while each of its
    # two messages' ``transfer`` called ``delivery_time``.  38 while it
    # booked five ``Counter.inc`` (``calls``, ``cmd_get``, ``get_hits``,
    # ``hits``, ``stat_hits``), its get was priced twice
    # (``request_size``, ``command_cpu``) and it asked ``_hot_for``; 31
    # while its call's healthy answer half was ``Endpoint._answer``.  30
    # while its get asked ``_read_memo`` for the owner memo.
    "stat_hit": 29,
    # 169 and 298 while each pushed block was a scalar store at every
    # layer (``KeyCache.data_key``, ``block_index``, ``owners``,
    # ``engine.set`` → ``_check_key``, ``_store``, ``_total_size``,
    # ``class_for``, ``_allocate``, ``alloc_in``, ``_insert``, four
    # ``Counter.inc``): ~18 calls per extra pushed block.  A push is one
    # store loop per layer; an extra pushed block then paid ``owners``
    # and the store loop's ``_total_size`` → ``key_nbytes``,
    # ``class_for`` and ``alloc_in`` (5), and the 16 KiB read the page
    # cache's one ``Counter.inc`` per extra 4 KiB page (3).  163 / 201
    # while the brick fop resumed a ``ClientProtocol`` frame around
    # ``Endpoint.call`` and a ``PosixXlator._charge`` frame, and the
    # page cache booked a ``Counter.inc`` per page.  151 / 186 while each
    # of the six messages' ``transfer`` called ``delivery_time``.  145 /
    # 180 while SMCache's push asked ``_fanout_width`` for a replica
    # count its client already books.  144 / 179 while ``set_multi``
    # asked ``owners`` per item and the store loop sized, placed and
    # allocated each item through ``_total_size`` → ``key_nbytes``,
    # ``class_for`` and ``alloc_in`` (5 per pushed block); the batch
    # makes ``owners``'s epoch check and mode test once
    # (``_sole_batches``, +1) and the loop does the rest inline.  A miss
    # now enters ``assemble_blocks`` (+1), which stops at the first
    # absent block, in place of the read's own presence probe.  141
    # while ten of its counts were ``Counter.inc`` calls (three RPCs'
    # ``calls``, the engine's get and miss counts, the client's
    # ``hits``/``misses``, ``blocks_requested``, ``read_misses``), each
    # MCD RPC was priced twice (``request_size`` and ``command_cpu``:
    # four calls, two now) and the hot tier's gate was ``_hot_for``.
    # 128 while each of its three RPCs entered ``Endpoint._answer``.
    # 125 while the read's counts were ``Counter.inc`` calls (the
    # brick's ``fop_read``, ``LocalFS`` ``reads``, the page cache's hits,
    # SMCache's ``read_extra_bytes`` and ``block_pushes``, the engine's
    # store counts and ``sets``: tallies now), a miss entered
    # ``assemble_blocks`` to find its first block absent, the multi-get
    # asked ``_read_memo``, ``align`` asked ``cover``, the page cache's
    # probe asked ``_page_range`` and the daemon's ``set_multi`` ran a
    # ``_store_all`` frame.
    "cold_read_2k": 108,
    "cold_read_16k": 108,
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
    # 296 / 585 / 136 while every key was routed by ``select`` +
    # ``memcache_hash`` rather than a memoised owner, and every valid key
    # the engine stored or deleted was sized by ``key_nbytes`` rather
    # than passing the one-scan plain-key test.  (Each RPC now also
    # enters the request and answer halves it shares with a batch leg.)
    # 292 / 492 / 136 while the engine stored and deleted one item per
    # call: the two pushed blocks and the ``:stat`` refresh each paid
    # ``data_key``, ``block_index`` and ``engine.set`` with its
    # ``_check_key``, ``_store``, ``_allocate`` and ``_insert`` frames,
    # and the close's 32 purged keys each ``engine.delete`` →
    # ``_check_key``, ``_live_item``, ``_expired``, ``_unlink`` and
    # three ``Counter.inc``.  Each engine batch is one loop now: a
    # stored item pays ``owners``, ``_total_size`` → ``key_nbytes``,
    # ``class_for``, ``alloc_in`` and, overwriting, ``_detach`` →
    # ``SlabAllocator.free``; a purged key ``owners``, ``_detach`` and
    # ``free``.  264 / 209 / 131 while the brick fop resumed its
    # ``ClientProtocol`` and ``_charge`` frames and ``LocalFS`` entered
    # ``_wait`` even with nothing to wait for.  230 / 201 / 120 while
    # each message's ``transfer`` called ``delivery_time`` (6 / 4 / 4
    # messages).  224 / 197 / 116 while every SMCache push and purge
    # asked ``_fanout_width`` (two pushes in the write, one purge in the
    # close, one ``:stat`` push in the open).  222 / 196 / 115 while each
    # stored item paid ``_total_size`` → ``key_nbytes``, ``class_for``
    # and ``alloc_in`` (three stores in the write, one in the open) and
    # each pushed or purged key an ``owners`` (two pushed blocks, 32
    # purged keys); a batch pays one ``_sole_batches``.  209 / 165 / 111
    # while each RPC's ``calls`` (3 / 2 / 2 RPCs) and the close's and
    # the open's own ``closes`` / ``opens`` were ``Counter.inc`` calls
    # and each MCD RPC was priced by ``request_size`` and
    # ``command_cpu`` (2 / 1 / 1 MCD RPCs).  204 / 161 / 107 while each
    # RPC's healthy answer half was an ``Endpoint._answer`` frame.
    # 201 / 159 / 105 while their counts were ``Counter.inc`` calls (21 /
    # 7 / 9: the brick's ``fop_*``, ``LocalFS``'s and its meta cache's,
    # the page cache's, SMCache's push and purge counts, the engine's
    # store and delete counts, the slab allocator's, the client's
    # ``sets``/``deletes``; tallies now) and each store batch ran a
    # ``_store_all`` frame under ``set_multi``.
    "write_4k": 176,
    # 272 while the purge asked ``KeyCache.data_key`` and
    # ``block_index`` once per purged block (64 calls for 32); the
    # purge index holds block indices and the keys are one
    # ``data_keys`` slice of the path's key list.  159 with the counts
    # and store frame above.
    "close": 152,
    "open": 96,
    # NoCache, the brick path alone.  89 / 60 while the fop resumed a
    # ``ClientProtocol`` frame, a ``_charge`` frame and (on the disk
    # wake) ``LocalFS._wait``, the wait was a ``Timeout`` and the page
    # cache booked a ``Counter.inc`` per page.  58 / 43 while each of the
    # two messages' ``transfer`` called ``delivery_time``.  56 / 41
    # while the brick RPC's ``calls`` was a ``Counter.inc``, 55 / 40
    # while its answer half was an ``Endpoint._answer`` frame.  54 / 39
    # while ``fop_read``, ``reads`` and the page cache's counts were
    # ``Counter.inc`` calls and the page cache's probe asked
    # ``_page_range``; the miss is 54 still because it is this testbed's
    # first read, so its tallies' first counts each enter one frame.
    "uncached_read_16k_page_miss": 54,
    "uncached_read_16k_page_hit": 36,
}
#: (warm_read_16k - warm_read_2k) / 7: what one more cached block costs
#: (3 before the covering keys were a slice and owners memoised).
PER_EXTRA_BLOCK = 0
#: What one more pushed block costs a cold read: nothing (~18 before the
#: store loops; 5 while each paid ``owners``, ``_total_size``,
#: ``key_nbytes``, ``class_for`` and ``alloc_in``).
PER_PUSHED_BLOCK = 0
#: What the extra 4 KiB pages a 16 KiB read probes cost over a 2 KiB
#: one: the page cache books its counters once per call (3 while it
#: paid one ``Counter.inc`` per page).
EXTRA_PAGES = 0


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


def _counter_frames(sim, op_gen):
    """Run *op_gen* to completion on *sim*; the ``Counter.inc`` and
    ``Counter.values`` frames entered meanwhile."""
    codes = {Counter.inc.__code__, Counter.values.fget.__code__}
    frames = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            frames.append(frame.f_code.co_qualname)

    done = sim.process(op_gen)
    sys.setprofile(profiler)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert done.triggered
    return frames


def _warm_testbed():
    """A 1-client, 1-MCD testbed holding ``/warm`` (64 KiB, every block
    cached) open; returns ``(tb, fd)``.  It has run a stat hit and a
    cached read too, so every op budgeted on it is past its counters'
    first counts (a tally's first count enters one frame, once:
    :func:`test_a_tallys_first_count_enters_one_frame_and_later_counts_none`)."""
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
        yield from client.stat("/warm")
        yield from client.read(fd, 0, 2 * KiB)
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


def test_a_stat_hit_and_a_warm_read_enter_no_counter_frame():
    """Their counts are tallies: plain attributes, folded into their
    counters only when those are read."""
    tb, fd = _warm_testbed()
    sim, client = tb.sim, tb.clients[0]
    hits = tb.cm_stats()
    assert _counter_frames(sim, client.stat("/warm")) == []
    assert _counter_frames(sim, client.read(fd, 16 * KiB, 16 * KiB)) == []
    after = tb.cm_stats()
    assert after["stat_hits"] == hits.get("stat_hits", 0) + 1
    assert after["read_hits"] == hits.get("read_hits", 0) + 1


def test_a_cold_read_and_a_write_enter_no_counter_frame():
    """The miss and write paths count in tallies too: the brick's fops,
    the file system's and page cache's counts, SMCache's pushes and
    purges, the engine's and the slab allocator's store counts and the
    client's ``sets``/``deletes``."""
    tb, fd = _warm_testbed()
    sim, client = tb.sim, tb.clients[0]

    def reopen():
        yield from client.close(fd)
        return (yield from client.open("/warm"))

    done = sim.process(reopen())
    sim.run()
    fd = done.value
    misses, pushes = tb.cm_stats()["read_misses"], tb.sm_stats()["block_pushes"]
    assert _counter_frames(sim, client.read(fd, 16 * KiB, 16 * KiB)) == []
    assert _counter_frames(sim, client.write(fd, 16 * KiB, 4 * KiB)) == []
    assert tb.cm_stats()["read_misses"] == misses + 1
    assert tb.sm_stats()["block_pushes"] == pushes + 8 + 2


def test_a_tallys_first_count_enters_one_frame_and_later_counts_none():
    """A tally's first count puts its key in the counter, at 0, where
    ``Counter.inc`` would have: one frame, once per key and component."""
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=1, mcd_memory=8 * MiB, imca=IMCaConfig())
    )
    sim, client = tb.sim, tb.clients[0]

    def setup():
        fd = yield from client.create("/a")
        yield from client.close(fd)

    sim.process(setup())
    sim.run()

    def first_counts(op_gen):
        names = []

        def profiler(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(_SRC):
                names.append(frame.f_code.co_qualname)

        sim.process(op_gen)
        sys.setprofile(profiler)
        try:
            sim.run()
        finally:
            sys.setprofile(None)
        return names.count("_Unmoved.__add__")

    # The first stat hit: the client's ``stats``, CMCache's
    # ``stat_hits``, the MCD client's ``hits`` and the engine's
    # ``get_hits`` move for the first time; the second, nothing new.
    assert first_counts(client.stat("/a")) == 4
    assert first_counts(client.stat("/a")) == 0
    assert tb.cm_stats()["stat_hits"] == 2


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


def test_cold_read_costs_its_call_budget_and_no_calls_per_extra_pushed_block():
    tb, fd = _warm_testbed()
    sim, client = tb.sim, tb.clients[0]

    def reopen():
        yield from client.close(fd)
        return (yield from client.open("/warm"))

    spent = {}
    for name, size, blocks in (("cold_read_2k", 2 * KiB, 1), ("cold_read_16k", 16 * KiB, 8)):
        done = sim.process(reopen())
        sim.run()
        fd = done.value
        pushes = tb.sm_stats()["block_pushes"]
        misses = tb.cm_stats()["read_misses"]
        spent[name], result = _count_calls(sim, client.read(fd, 16 * KiB, size))
        assert result.size == size
        assert tb.cm_stats()["read_misses"] == misses + 1
        assert tb.sm_stats()["block_pushes"] == pushes + blocks

    extra = spent["cold_read_16k"] - spent["cold_read_2k"]
    assert extra == 7 * PER_PUSHED_BLOCK + EXTRA_PAGES, spent
    assert spent == _budget_for(spent)


def test_uncached_reads_cost_their_call_budget():
    """The brick path alone: a NoCache 16 KiB read that misses the
    server's page cache (its disk wake resumes one frame per layer) and
    the same read again, now a page-cache hit."""
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=0, server_cache_bytes=64 * KiB)
    )
    sim, client = tb.sim, tb.clients[0]
    opened = []

    def setup():
        fd = yield from client.create("/a")
        yield from client.write(fd, 0, 64 * KiB)
        # As large as the page cache: every page of /a is evicted.
        other = yield from client.create("/b")
        yield from client.write(other, 0, 64 * KiB)
        opened.append(fd)

    sim.process(setup())
    sim.run()
    (fd,) = opened
    pages = tb.server.fs.page_cache.stats
    spent = {}
    for name, counter in (
        ("uncached_read_16k_page_miss", "page_misses"),
        ("uncached_read_16k_page_hit", "page_hits"),
    ):
        before = pages.get(counter)
        spent[name], result = _count_calls(sim, client.read(fd, 16 * KiB, 16 * KiB))
        assert result.size == 16 * KiB
        assert pages.get(counter) == before + 4
    assert spent == _budget_for(spent)
