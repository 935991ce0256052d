"""Tests for deterministic random streams."""

import numpy as np

from repro.sim import RandomStreams


# -- RandomStreams -------------------------------------------------------------------
def test_same_name_same_stream_instance():
    rs = RandomStreams(42)
    assert rs.stream("disk") is rs.stream("disk")


def test_streams_reproducible_across_instances():
    a = RandomStreams(42).stream("disk").random(10)
    b = RandomStreams(42).stream("disk").random(10)
    assert np.allclose(a, b)


def test_streams_differ_by_name_and_seed():
    rs = RandomStreams(42)
    x = rs.stream("disk").random(10)
    y = rs.stream("net").random(10)
    assert not np.allclose(x, y)
    z = RandomStreams(43).stream("disk").random(10)
    assert not np.allclose(x, z)


def test_stream_independent_of_creation_order():
    rs1 = RandomStreams(7)
    rs1.stream("a")
    first = rs1.stream("b").random(5)
    rs2 = RandomStreams(7)
    second = rs2.stream("b").random(5)  # created without touching "a"
    assert np.allclose(first, second)


def test_names_that_share_a_long_prefix_get_different_streams():
    rs = RandomStreams(7)
    a = rs.stream("replica.read.jitter.a").random(5)
    b = rs.stream("replica.read.jitter.b").random(5)
    assert not np.allclose(a, b)
    # Both once drew the stream of their shared first 16 bytes.
    assert a[0] != 0.3616442630396982 and b[0] != 0.3616442630396982


def test_the_simulator_streams_keep_their_draws():
    """Every name in use is at most 16 bytes, so its stream is the one
    the name's first 16 bytes have always seeded: chaos and fault runs
    reproduce byte for byte."""
    rs = RandomStreams(7)
    names = ("faults", "rpc.jitter", "net.loss")
    first = {name: rs.stream(name).random(3).tolist() for name in names}
    assert first == {
        "faults": [0.2872940305756245, 0.8149755014208113, 0.34710028597090137],
        "rpc.jitter": [0.28070891110052365, 0.7025439955764694, 0.9525826718283232],
        "net.loss": [0.540047726042917, 0.646898020769103, 0.7101575787098162],
    }
