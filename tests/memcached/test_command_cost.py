"""One pricing pass per command: :func:`command_cost` answers the
request's wire bytes and the daemon's CPU for it together, and must be
bit for bit what the two passes it replaced answered.

The reference is those two passes, copied here as they were for the
commands the daemon serves: ``request_size(op, payload)`` (the
client's) and ``command_cpu(args)`` (the daemon's arrival-CPU
declaration).  Every served command runs through both, with ASCII and
non-ASCII keys, empty batches and ``set_multi`` items; the sizes must be
equal and the CPU floats identical to the bit.  Every other command —
memcached's that no IMCa path sends, and names memcached never had — is
refused by the daemon and priced as the bare framing.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memcached import MemcachedDaemon
from repro.memcached.daemon import (
    COPY_PER_BYTE,
    KEY_WIRE_OVERHEAD,
    OP_CPU,
    SERVICE,
    command_cost,
)
from repro.memcached.engine import McError
from repro.net import IPOIB, Endpoint, Network, Node, RpcCall
from repro.sim import Simulator
from repro.util import MiB


def command_cpu(args):
    """The daemon's arrival-CPU declaration, as it was."""
    op, payload = args
    if op in ("get_multi", "delete_multi"):
        return OP_CPU * max(1, len(payload))
    if op == "set_multi":
        cost = 0.0
        for item in payload:
            cost += OP_CPU + COPY_PER_BYTE * item[2]
        return cost
    if op in ("set", "add"):
        return OP_CPU + COPY_PER_BYTE * payload[2]
    if op == "scan":
        return OP_CPU * max(1, payload[1])
    if op == "flush_all":
        return OP_CPU
    return 0.0


def request_size(op, payload):
    """The client's request sizing, as it was."""
    if op in ("get_multi", "delete_multi"):
        keys = "".join(payload)
        return (
            (len(keys) if keys.isascii() else len(keys.encode()))
            + KEY_WIRE_OVERHEAD * len(payload)
        )
    if op in ("set", "add"):
        key, _value, nbytes, _flags, _ttl = payload
        return (
            (len(key) if key.isascii() else len(key.encode())) + KEY_WIRE_OVERHEAD + nbytes
        )
    if op == "set_multi":
        size = 0
        for key, _value, nbytes, _flags, _ttl in payload:
            size += (len(key) if key.isascii() else len(key.encode())) + nbytes
        return size + KEY_WIRE_OVERHEAD * len(payload)
    return KEY_WIRE_OVERHEAD


keys = st.one_of(
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=40),
    st.text(max_size=40),
    st.sampled_from(["/f:stat", "/f:2048", "/été:0", "/文:stat"]),
)
nbytes = st.integers(min_value=0, max_value=2 * 1024 * 1024)
ttls = st.sampled_from([0, 0.0, 60.0, 1e-3])
items = st.tuples(keys, st.none(), nbytes, st.integers(0, 2**16), ttls)

#: Unknown commands: memcached's, in the payload shapes their deleted
#: client calls sent, and names it never had.
unknown = st.one_of(
    st.tuples(st.just("replace"), items),
    st.tuples(
        st.sampled_from(["append", "prepend"]), st.tuples(keys, st.none(), nbytes)
    ),
    st.tuples(
        st.just("cas"),
        st.tuples(keys, st.none(), nbytes, st.integers(0, 2**40), st.integers(0, 9), ttls),
    ),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.sampled_from(["incr", "decr"]), st.tuples(keys, st.integers(0, 2**32))),
    st.tuples(st.just("touch"), st.tuples(keys, ttls)),
    st.tuples(st.sampled_from(["stats", "gets", "verbosity", ""]), st.none()),
)

commands = st.one_of(
    st.tuples(st.sampled_from(["get_multi", "delete_multi"]), st.lists(keys, max_size=12)),
    st.tuples(st.sampled_from(["set", "add"]), items),
    st.tuples(st.just("set_multi"), st.lists(items, max_size=12)),
    st.tuples(
        st.just("scan"),
        st.tuples(st.integers(0, 10**6), st.integers(0, 500), st.booleans()),
    ),
    st.tuples(st.just("flush_all"), st.none()),
    unknown,
)


def _same(got, want):
    """Equal sizes and bit-identical CPU floats."""
    (size, cpu), (ref_size, ref_cpu) = got, want
    assert type(size) is int and size == ref_size
    assert type(cpu) is float and cpu.hex() == float(ref_cpu).hex()


@settings(max_examples=400, deadline=None)
@given(commands)
def test_command_cost_is_the_two_passes_it_replaced(command):
    op, payload = command
    _same(command_cost(op, payload), (request_size(op, payload), command_cpu((op, payload))))


@settings(max_examples=200, deadline=None)
@given(unknown)
def test_an_unknown_command_is_refused_and_priced_as_bare_framing(command):
    op, payload = command
    _same(command_cost(op, payload), (KEY_WIRE_OVERHEAD, 0.0))
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemon = MemcachedDaemon(sim, net, Node(sim, "mcd"), 16 * MiB)
    daemon.engine.set("k", b"v", 1)
    call = RpcCall(Endpoint(net, Node(sim, "client")).conn(daemon.node, SERVICE), command, 0)
    with pytest.raises(McError, match="unknown command"):
        daemon._serve(call)
    assert daemon.engine.stats.as_dict() == {
        "cmd_set": 1, "curr_items": 1, "total_items": 1, "bytes": 1,
    }


def test_empty_batches_and_known_shapes():
    for op in ("get_multi", "delete_multi", "set_multi"):
        assert command_cost(op, []) == (0, OP_CPU if op != "set_multi" else 0.0)
    blocks = [("/f:0", None, 2048, 0, 0), ("/é:stat", None, 120, 0, 0)]
    _same(
        command_cost("set_multi", blocks),
        (request_size("set_multi", blocks), command_cpu(("set_multi", blocks))),
    )
    assert command_cost("set_multi", blocks)[0] == (4 + 2048) + (8 + 120) + 2 * KEY_WIRE_OVERHEAD
    size, cpu = command_cost("get_multi", ["ab", "é", "文x"])
    assert size == (2 + 2 + 4) + 3 * KEY_WIRE_OVERHEAD
    assert math.isclose(cpu, 3 * OP_CPU)
