"""SMCache's purge index never loses a block pushed across a purge.

``_pushed[path]`` is what ``open``/``truncate``/``unlink`` purge by.  A
push whose stores are still in flight when a purge pops the path's set
must already be in that set, so the purge deletes its blocks too — and,
since a small delete can overtake a large store on an MCD's CPUs, must
be in the live set again once the stores return.  Indexed only on
completion, into the set captured before the purge, the offsets were
orphaned and no later purge could remove the blocks.
"""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.keys import parse_data_key
from repro.util import KiB

PATH = "/f"


@pytest.mark.parametrize("fop", ("open", "truncate", "unlink"))
def test_a_push_in_flight_across_a_purge_stays_purgeable(fop):
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=2))
    sim, sm, client = tb.sim, tb.smcaches[0], tb.clients[0]
    purge = sm._purge_data
    in_flight = []

    def purge_behind_a_push(path, result):
        """The fop's purge, with a 16 KiB push of *path* started 20 us
        ahead of it — its stores are on the wire when the index pops."""
        push = sim.process(sm._push_blocks(path, result))
        yield sim.timeout(20e-6)
        in_flight.append(not push.triggered)
        yield from purge(path)

    def scenario():
        fd = yield from client.create(PATH)
        yield from client.write(fd, 0, 16 * KiB)
        yield from client.close(fd)
        result = yield from sm._down().read(PATH, 0, 16 * KiB)
        sm._purge_data = lambda path: purge_behind_a_push(path, result)
        if fop == "open":
            yield from client.open(PATH)
        elif fop == "truncate":
            yield from client.truncate(PATH, 4 * KiB)
        else:
            yield from client.unlink(PATH)

    sim.process(scenario())
    sim.run()
    assert in_flight == [True]
    # The purge found the blocks still in flight (after the 8 that the
    # close purged) ...
    assert tb.sm_stats()["purged_blocks"] == 16
    # ... and at quiescence every block an MCD holds — a store can land
    # behind the purge's delete — is one the next purge will find.
    held = {
        parse_data_key(key)[1] // sm.mapper.block_size
        for mcd in tb.mcds
        for key in mcd.engine._items
        if not key.endswith(":stat")
    }
    assert held <= sm._pushed.get(PATH, set())
