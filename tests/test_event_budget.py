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
    # 1 client CPU + 4 x (request, lookup CPU, copy CPU, response) + 1 join.
    "warm_read_16k": 18,
    # One get to one MCD: client CPU + request, lookup, copy, response.
    "stat_hit": 5,
    # Server-first 4 KiB write, read-back, 2 block pushes, stat push.
    "write_2_blocks": 17,
    # Every block evicted: multi-get misses, brick read, then the 8
    # block pushes as one set_multi per MCD (44 as 8 scalar sets).
    "capacity_miss_read_16k": 32,
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
