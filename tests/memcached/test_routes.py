"""Where a key lives: the route pins of ``FINGERPRINTS.json`` and the
owner a client names for a block it pushed.

A key is its own route.  A data key ``abspath:<block-offset>`` names its
block, so every selector — CRC32, the §5.5 modulo striping, ketama —
places it from the key alone, and ``MemcacheClient.owners(key)`` is
where the block actually is.

The pins hash the owner of a fixed key set on a static testbed: data
keys of 16 blocks at 256 B, 2 KiB and 8 KiB, the ``:stat`` keys, and
paths that themselves contain ``:`` and digits, for each selector at 4
and at 5 MCDs.  Any change that moves a single key's owner breaks one.
"""

import hashlib
import json
import os

import pytest

from repro import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.core.keys import KeyCache, data_key
from repro.util.units import KiB, MiB

FINGERPRINTS = os.path.join(os.path.dirname(__file__), "..", "..", "FINGERPRINTS.json")

PATHS = [f"/mnt/vol/d{i % 5}/file{i:03d}" for i in range(12)] + [
    "/mnt/vol/odd:name/x:7",
    "/a:0",
]
BLOCKS = 16
BLOCK_SIZES = (256, 2 * KiB, 8 * KiB)


def _testbed(selector, num_mcds, block_size):
    return build_gluster_testbed(
        TestbedConfig(
            num_clients=1, num_mcds=num_mcds, mcd_memory=8 * MiB,
            imca=IMCaConfig(block_size=block_size, selector=selector),
        )
    )


def route_lines(selector, num_mcds):
    """``key<TAB>owner`` for the pinned key set, in a fixed order; the
    brick's client (SMCache's pushes) must name the same owner as the
    client node's (CMCache's reads)."""
    lines = []
    for bs in BLOCK_SIZES:
        tb = _testbed(selector, num_mcds, bs)
        reader, pusher = tb.cmcaches[0].mc, tb.smcaches[0].mc
        keys = KeyCache(block_size=bs)
        for path in PATHS:
            for key in [*keys.data_keys(path, 0, BLOCKS), keys.stat_key(path)]:
                (owner,) = reader.owners(key)
                assert pusher.owners(key) == [owner], key
                lines.append(f"{key}\t{owner}")
    return lines


@pytest.mark.parametrize("num_mcds", [4, 5])
@pytest.mark.parametrize("selector", ["crc32", "modulo", "ketama"])
def test_route_pins(selector, num_mcds):
    with open(FINGERPRINTS) as f:
        want = json.load(f)["routes"][f"{selector}/{num_mcds}"]
    text = "\n".join(route_lines(selector, num_mcds)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_a_pushed_block_is_on_the_owner_its_key_names(block_size):
    """A 16 KiB read on a 4-MCD modulo testbed pushes its blocks; each
    block key is held by exactly one daemon, the one ``owners(key)[0]``
    names, and block ``i`` is on daemon ``i % 4``."""
    tb = _testbed("modulo", 4, block_size)
    client, mc = tb.clients[0], tb.cmcaches[0].mc

    def body():
        fd = yield from client.create("/f")
        yield from client.write(fd, 0, 16 * KiB)
        yield from client.close(fd)  # purges the written blocks
        fd = yield from client.open("/f")
        yield from client.read(fd, 0, 16 * KiB)

    tb.sim.process(body())
    tb.sim.run()
    for index in range(16 * KiB // block_size):
        key = data_key("/f", index * block_size)
        holders = [i for i, d in enumerate(tb.mcds) if key in d.engine._items]
        (owner,) = mc.owners(key)
        assert holders == [owner] == [index % 4], key
