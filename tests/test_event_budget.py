"""Exact scheduler-entry budgets of the four headline ops (ROADMAP 1(a)).

``Simulator._seq`` counts every schedule entry minted, and for one
config and one op sequence it is deterministic — so each op's delta is
pinned to the unit: a change that costs the cached read a single extra
entry fails here, with no noise to hide in.  Lower a number when a
change removes entries; never raise one without saying why in
CHANGES.md.
"""

from repro import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.util.units import KiB, MiB

#: Entries per op on a 1-client, 4-MCD testbed at ``IMCaConfig()``
#: defaults (2 KiB blocks, crc32 placement).
BUDGET = {
    # 8 blocks + the :stat entry in one multi-get over all 4 MCDs:
    # 4 requests + 1 join.  The lookup CPU rides the request's receive
    # visit and the copy CPU the response's send visit (18 when each
    # was an entry of its own); each response lands on the join instead
    # of waking its leg (10 while it did); the requests leave when the
    # FUSE crossing ends instead of the op waking for it (6 while it
    # did).
    "warm_read_16k": 5,
    # One get to one MCD: request, response (5 with the two MCD CPU
    # visits, 3 with the crossing's wake).
    "stat_hit": 2,
    # Server-first 4 KiB write, read-back, 2 block pushes, stat push (17;
    # 14 while the two push legs woke on their responses, 12 while the
    # op woke for its crossing).
    "write_2_blocks": 11,
    # Every block evicted: multi-get misses, brick read, then the 8
    # block pushes as one set_multi per MCD (44 as 8 scalar sets, 32
    # with a CPU entry per MCD command, 23 while each of the 4 + 4 legs
    # woke on its response, 15 while the op woke for its crossing).
    "capacity_miss_read_16k": 14,
}


def test_headline_ops_cost_exactly_their_event_budget():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=4, mcd_memory=2 * MiB, imca=IMCaConfig())
    )
    sim, client = tb.sim, tb.clients[0]
    spent = {}

    def measured(name, op):
        before = sim._seq
        result = yield from op
        spent[name] = sim._seq - before
        return result

    def scenario():
        fd = yield from client.create("/warm")
        yield from client.write(fd, 0, 64 * KiB)
        yield from client.close(fd)
        fd = yield from client.open("/warm")
        # The first read goes to the brick; SMCache pushes its blocks.
        yield from client.read(fd, 0, 64 * KiB)
        before = dict(tb.cm_stats())
        hit = yield from measured("warm_read_16k", client.read(fd, 16 * KiB, 16 * KiB))
        yield from measured("stat_hit", client.stat("/warm"))
        assert hit.size == 16 * KiB
        assert tb.cm_stats()["read_hits"] == before.get("read_hits", 0) + 1
        assert tb.cm_stats()["stat_hits"] == before.get("stat_hits", 0) + 1
        yield from measured("write_2_blocks", client.write(fd, 4 * KiB, 4 * KiB))
        # Push four times what the 4 x 2 MiB bank holds: /warm is evicted.
        big = yield from client.create("/big")
        for off in range(0, 8 * MiB, 64 * KiB):
            yield from client.write(big, off, 64 * KiB)
        misses = tb.cm_stats()["read_misses"]
        yield from measured("capacity_miss_read_16k", client.read(fd, 32 * KiB, 16 * KiB))
        assert tb.cm_stats()["read_misses"] == misses + 1

    sim.process(scenario())
    sim.run()
    assert spent == BUDGET


#: What a process costs around its op: its start entry and its
#: completion entry.
PROCESS = 2
#: A stat that follows another's flight: the process's two entries —
#: no RPC leg, and no wake for its FUSE crossing, which ends before the
#: flight it parks on (one more while the crossing was slept on).
FOLLOWER = PROCESS
#: The leader's one publish, minted only because somebody followed.
PUBLISH = 1
#: The ``all_of`` the test itself waits on.
JOIN = 1


def test_concurrent_stats_on_one_client_pay_no_window_tax():
    """K processes share one client stack.  Statting K distinct warm
    paths costs exactly K solo stat hits — nothing for the concurrency
    itself; statting one warm path costs ONE stat hit plus a pinned
    term per follower."""
    k = 8
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=4, mcd_memory=2 * MiB, imca=IMCaConfig())
    )
    sim, client = tb.sim, tb.clients[0]

    def warm():
        for i in range(k):
            fd = yield from client.create(f"/w{i}")
            yield from client.close(fd)

    sim.run(until=sim.process(warm()))

    def burst(paths):
        before = sim._seq
        hits = tb.cm_stats().get("stat_hits", 0)
        sim.run(until=sim.all_of([sim.process(client.stat(p)) for p in paths]))
        assert tb.cm_stats()["stat_hits"] == hits + len(paths)
        return sim._seq - before

    solo = BUDGET["stat_hit"] + PROCESS
    assert burst(["/w0"]) == solo + JOIN
    assert burst([f"/w{i}" for i in range(k)]) == k * solo + JOIN
    assert tb.fastpath_stats()["stat_sf_follows"] == 0
    assert burst(["/w0"] * k) == solo + PUBLISH + (k - 1) * FOLLOWER + JOIN
    assert tb.fastpath_stats()["stat_sf_follows"] == k - 1


def test_distinct_file_burst_costs_what_the_same_ops_cost_one_at_a_time():
    """K processes on one client each stat and read their own warm
    file: the burst mints exactly the entries the same 2K ops mint
    issued one after another (plus the extra processes' own two)."""
    k = 8
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=4, mcd_memory=2 * MiB, imca=IMCaConfig())
    )
    sim, client = tb.sim, tb.clients[0]
    fds = []

    def warm():
        for i in range(k):
            fd = yield from client.create(f"/d{i}")
            yield from client.write(fd, 0, 2 * KiB)
            yield from client.read(fd, 0, 2 * KiB)
            fds.append(fd)

    sim.run(until=sim.process(warm()))

    def ops(i):
        yield from client.stat(f"/d{i}")
        yield from client.read(fds[i], 0, 2 * KiB)

    def serial():
        for i in range(k):
            yield from ops(i)

    before = sim._seq
    sim.run(until=sim.all_of([sim.process(serial())]))
    one_at_a_time = sim._seq - before
    before = sim._seq
    sim.run(until=sim.all_of([sim.process(ops(i)) for i in range(k)]))
    assert sim._seq - before == one_at_a_time + (k - 1) * PROCESS
    # Every op of the warm pass, the serial pass and the burst hit.
    assert tb.cm_stats()["stat_hits"] == 2 * k and tb.cm_stats()["read_hits"] == 3 * k
    assert not any(tb.fastpath_stats().values())


#: Entries per uncached 16 KiB read on a 1-client NoCache testbed (no
#: MCD): the request, the io-thread visit, the posix CPU visit and the
#: response; a read that misses the server's page cache adds its disk
#: wait.
BRICK_BUDGET = {
    "uncached_read_16k_page_hit": 4,
    "uncached_read_16k_page_miss": 5,
}


def test_uncached_reads_cost_exactly_their_event_budget():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=0, server_cache_bytes=64 * KiB)
    )
    sim, client = tb.sim, tb.clients[0]
    page_stats = tb.server.fs.page_cache.stats
    spent = {}

    def measured(name, op):
        before = sim._seq
        result = yield from op
        spent[name] = sim._seq - before
        return result

    def scenario():
        fd = yield from client.create("/a")
        yield from client.write(fd, 0, 64 * KiB)
        # A second file as large as the page cache evicts every page of /a.
        other = yield from client.create("/b")
        yield from client.write(other, 0, 64 * KiB)
        misses = page_stats.get("page_misses")
        miss = yield from measured(
            "uncached_read_16k_page_miss", client.read(fd, 16 * KiB, 16 * KiB)
        )
        assert page_stats.get("page_misses") == misses + 4
        hits = page_stats.get("page_hits")
        hit = yield from measured(
            "uncached_read_16k_page_hit", client.read(fd, 16 * KiB, 16 * KiB)
        )
        assert page_stats.get("page_hits") == hits + 4
        assert miss.size == hit.size == 16 * KiB

    sim.process(scenario())
    sim.run()
    assert spent == BRICK_BUDGET
