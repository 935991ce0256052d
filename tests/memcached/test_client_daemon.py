"""Integration tests: memcached daemon + client over the network."""

import pytest

from repro.memcached import (
    Crc32Selector,
    MemcacheClient,
    MemcachedDaemon,
    ModuloSelector,
)
from repro.net import Endpoint, IPOIB, Network, Node
from repro.sim import Simulator
from repro.util import MiB, USEC


def make_cluster(n_mcds=2, selector=None, mem=16 * MiB):
    sim = Simulator()
    net = Network(sim, IPOIB)
    client_node = Node(sim, "client")
    cep = Endpoint(net, client_node)
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), mem) for i in range(n_mcds)
    ]
    client = MemcacheClient(cep, daemons, selector)
    return sim, client, daemons


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_set_get_over_network():
    sim, client, daemons = make_cluster()

    def proc():
        ok = yield from client.set("key", b"hello", 5)
        assert ok is True
        v = yield from client.get("key")
        return v

    v = drive(sim, proc())
    assert v.value == b"hello"
    assert sim.now > 50 * USEC  # real network round trips elapsed


def test_get_miss_returns_none():
    sim, client, _ = make_cluster()

    def proc():
        v = yield from client.get("ghost")
        return v

    assert drive(sim, proc()) is None
    assert client.stats.get("misses") == 1


def test_keys_distribute_across_servers():
    sim, client, daemons = make_cluster(n_mcds=4)

    def proc():
        for i in range(200):
            yield from client.set(f"/f/file{i:05d}:{i * 2048}", None, 100)

    drive(sim, proc())
    counts = [d.engine.curr_items for d in daemons]
    assert sum(counts) == 200
    assert all(c > 20 for c in counts)  # CRC32 spreads


def test_modulo_selector_round_robins_hints():
    sim, client, daemons = make_cluster(n_mcds=4, selector=ModuloSelector())

    def proc():
        for block in range(100):
            yield from client.set(f"/f:{block * 2048}", None, 100, hint=block)

    drive(sim, proc())
    counts = [d.engine.curr_items for d in daemons]
    assert counts == [25, 25, 25, 25]


def test_get_multi_batches_per_server():
    sim, client, daemons = make_cluster(n_mcds=2)

    def proc():
        keys = [f"key{i}" for i in range(20)]
        for k in keys:
            yield from client.set(k, k.encode(), len(k))
        out = yield from client.get_multi(keys)
        return out

    out = drive(sim, proc())
    assert len(out) == 20
    assert out["key7"].value == b"key7"
    # One multi-get RPC per server, 20 sets = 22 calls total.
    assert client.endpoint.stats.get("calls") == 22


def test_get_multi_partial_hits():
    sim, client, _ = make_cluster()

    def proc():
        yield from client.set("a", b"1", 1)
        out = yield from client.get_multi(["a", "b", "c"])
        return out

    out = drive(sim, proc())
    assert set(out) == {"a"}
    assert client.stats.get("hits") == 1
    assert client.stats.get("misses") == 2


def test_dead_server_is_transparent_miss():
    sim, client, daemons = make_cluster(n_mcds=2)

    def proc():
        yield from client.set("key", b"v", 1)
        daemons[0].kill()
        daemons[1].kill()
        v = yield from client.get("key")
        ok = yield from client.set("other", b"x", 1)
        return v, ok

    v, ok = drive(sim, proc())
    assert v is None
    assert ok is False
    assert client.stats.get("errors") >= 2


def test_restarted_daemon_is_cold_but_alive():
    sim, client, daemons = make_cluster(n_mcds=1)

    def proc():
        yield from client.set("key", b"v", 1)
        daemons[0].kill()
        daemons[0].restart()
        v = yield from client.get("key")
        ok = yield from client.set("key2", b"w", 1)
        v2 = yield from client.get("key2")
        return v, ok, v2

    v, ok, v2 = drive(sim, proc())
    assert v is None  # cache lost on restart
    assert ok is True
    assert v2.value == b"w"


def test_delete_multi_and_flush():
    sim, client, daemons = make_cluster(n_mcds=2)

    def proc():
        for i in range(10):
            yield from client.set(f"k{i}", None, 10)
        yield from client.delete_multi([f"k{i}" for i in range(5)])
        remaining = sum(d.engine.curr_items for d in daemons)
        yield from client.flush_all()
        return remaining, sum(d.engine.curr_items for d in daemons)

    remaining, after_flush = drive(sim, proc())
    assert remaining == 5
    assert after_flush == 0


def test_stats_all():
    sim, client, daemons = make_cluster(n_mcds=2)

    def proc():
        yield from client.set("a", None, 10)
        yield from client.get("a")
        yield from client.get("zzz")
        stats = yield from client.stats_all()
        return stats

    stats = drive(sim, proc())
    assert len(stats) == 2
    total_hits = sum(s["get_hits"] for s in stats)
    total_misses = sum(s["get_misses"] for s in stats)
    assert total_hits == 1 and total_misses == 1


def test_bigger_values_cost_more_wire_time():
    sim1, client1, _ = make_cluster(n_mcds=1)

    def store_and_get(client, size):
        yield from client.set("k", None, size)
        yield from client.get("k")

    drive(sim1, store_and_get(client1, 100))
    t_small = sim1.now
    sim2, client2, _ = make_cluster(n_mcds=1)
    drive(sim2, store_and_get(client2, 512 * 1024))
    t_big = sim2.now
    assert t_big > t_small * 5


def test_client_requires_servers():
    sim = Simulator()
    net = Network(sim, IPOIB)
    ep = Endpoint(net, Node(sim, "c"))
    with pytest.raises(ValueError):
        MemcacheClient(ep, [])


def test_scan_op_over_rpc():
    from repro.memcached.daemon import SERVICE, request_size
    from repro.net import Endpoint, Node as _Node

    sim, client, daemons = make_cluster(n_mcds=1)

    def proc():
        for i in range(5):
            yield from client.set(f"k{i}", bytes([i]), 1)
        ep = client.endpoint
        next_cursor, entries = yield from ep.call(
            daemons[0].node, SERVICE, ("scan", (0, 3, True)),
            req_size=request_size("scan", (0, 3, True)),
        )
        assert next_cursor > 0
        assert [k for k, *_ in entries] == ["k0", "k1", "k2"]
        assert all(v is not None for _, v, *_ in entries)
        # resuming from next_cursor yields the rest exactly once
        rest_cursor, rest = yield from ep.call(
            daemons[0].node, SERVICE, ("scan", (next_cursor, 3, True)),
            req_size=request_size("scan", (next_cursor, 3, True)),
        )
        assert rest_cursor == 0
        assert [k for k, *_ in rest] == ["k3", "k4"]
        # keys-only mode nulls the values (cheap cleanup walks)
        _, lean = yield from ep.call(
            daemons[0].node, SERVICE, ("scan", (0, 5, False)),
            req_size=request_size("scan", (0, 5, False)),
        )
        assert all(v is None for _, v, *_ in lean)
        return True

    assert drive(sim, proc()) is True


def test_wire_sizes_charge_key_bytes_not_characters():
    """A non-ASCII key costs its UTF-8 length on the wire, request and
    reply; an ASCII key costs what it always did."""
    from repro.memcached.daemon import (
        COPY_PER_BYTE, KEY_WIRE_OVERHEAD, VALUE_WIRE_OVERHEAD, SERVICE, request_size,
    )
    from repro.net.rpc import RpcCall

    assert request_size("get_multi", ["ab", "é", "文x"]) == (2 + 2 + 4) + 3 * KEY_WIRE_OVERHEAD
    assert request_size("delete_multi", ["abc"]) == 3 + KEY_WIRE_OVERHEAD
    assert request_size("get_multi", []) == 0
    assert request_size("set", ("é", None, 10, 0, 0)) == 2 + KEY_WIRE_OVERHEAD + 10
    assert request_size("delete", "文") == 3 + KEY_WIRE_OVERHEAD
    assert request_size("touch", ("文", 1.0)) == 3 + KEY_WIRE_OVERHEAD

    sim, client, daemons = make_cluster(n_mcds=1)

    def scenario():
        yield from client.set("é", b"v", 5)
        yield from client.set("k", b"w", 7)
        # The handler's own (reply, resp_bytes): the copy CPU is priced
        # on the byte count it returns.
        call = RpcCall(client.endpoint.node, daemons[0].node, SERVICE,
                       ("get_multi", ["é", "k", "absent"]), 0)
        return daemons[0]._serve(call), call.reply_cpu

    (reply, resp_bytes), reply_cpu = drive(sim, scenario())
    assert sorted(reply) == ["k", "é"]
    assert resp_bytes == (5 + VALUE_WIRE_OVERHEAD + 2) + (7 + VALUE_WIRE_OVERHEAD + 1)
    assert reply_cpu == COPY_PER_BYTE * resp_bytes
