"""Client-side MCD health tracking: ejection, cooldown, purged rejoin.

A daemon is ejected after ``EJECT_AFTER`` consecutive errors (2); a test
that needs another threshold patches the module constant.
"""

import pytest

import repro.memcached.client as mc_client
from repro.memcached import MemcacheClient, MemcachedDaemon
from repro.net import ResilienceConfig
from repro.net import Endpoint, IPOIB, Network, Node
from repro.sim import Simulator
from repro.util import MiB


def make_cluster(n_mcds=1, resilience=None, mem=16 * MiB):
    sim = Simulator()
    net = Network(sim, IPOIB)
    cep = Endpoint(net, Node(sim, "client"))
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), mem) for i in range(n_mcds)
    ]
    client = MemcacheClient(cep, daemons, resilience=resilience)
    return sim, client, daemons


def drive(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_policy_validation():
    with pytest.raises(ValueError):
        ResilienceConfig(cooldown=-1.0)
    assert ResilienceConfig(cooldown=0.0).cooldown == 0.0


def test_consecutive_errors_eject_the_server():
    sim, client, (mcd,) = make_cluster(resilience=ResilienceConfig(cooldown=1.0))
    mcd.kill()

    def proc():
        for _ in range(5):
            yield from client.get("k")

    drive(sim, proc())
    assert client.stats.get("ejections") == 1
    assert client.ejected(0)
    # Only the first EJECT_AFTER calls paid a network attempt; the rest
    # were skipped locally at zero cost (still surfacing as op errors).
    assert client.stats.get("ejected_skips") == 3
    assert client.stats.get("errors") == 5


def test_errors_counter_resets_on_success(monkeypatch):
    monkeypatch.setattr(mc_client, "EJECT_AFTER", 3)
    sim, client, (mcd,) = make_cluster(resilience=ResilienceConfig(cooldown=1.0))

    def proc():
        yield from client.set("k", b"v", 1)
        mcd.kill()
        yield from client.get("k")  # error 1
        mcd.node.recover()
        yield from client.get("k")  # success resets the streak
        mcd.node.fail()
        yield from client.get("k")  # error 1 again
        yield from client.get("k")  # error 2 — still below the limit

    drive(sim, proc())
    assert client.stats.get("ejections", 0) == 0


def test_rejoin_purges_and_never_serves_pre_crash_data(monkeypatch):
    """Kill an MCD mid-run, bring the *node* back with its stale engine
    intact (the worst case), and confirm the rejoin purge prevents any
    pre-crash value from being served."""
    monkeypatch.setattr(mc_client, "EJECT_AFTER", 1)
    sim, client, (mcd,) = make_cluster(resilience=ResilienceConfig(cooldown=0.005))
    got = []

    def proc():
        yield from client.set("k", b"pre-crash", 9)
        # The node dies but its memory is NOT wiped: a stale engine.
        mcd.node.fail()
        yield from client.get("k")          # error -> immediate ejection
        mcd.node.recover()                  # stale daemon comes back
        yield from client.get("k")          # still in cooldown: skipped
        yield sim.timeout(0.01)
        v = yield from client.get("k")      # probe: purge + rejoin
        got.append(v)

    drive(sim, proc())
    assert got == [None], "a stale pre-crash value must never be served"
    assert client.stats.get("rejoin_purges") == 1
    assert client.stats.get("rejoins") == 1
    assert not client.ejected(0)
    assert mcd.engine.get("k") is None


def test_failed_probe_reejects(monkeypatch):
    monkeypatch.setattr(mc_client, "EJECT_AFTER", 1)
    sim, client, (mcd,) = make_cluster(resilience=ResilienceConfig(cooldown=0.005))
    mcd.kill()

    def proc():
        yield from client.get("k")      # eject
        yield sim.timeout(0.01)
        yield from client.get("k")      # probe fails: still down
        assert client.ejected(0)
        mcd.restart()
        yield sim.timeout(0.01)
        v = yield from client.get("k")  # probe succeeds now
        assert v is None
        assert not client.ejected(0)

    drive(sim, proc())
    assert client.stats.get("failed_probes") == 1
    assert client.stats.get("rejoins") == 1


def test_a_failed_flush_after_the_cooldown_does_not_readmit_the_server():
    """The first ``get`` past the cooldown sends the server's probe, a
    ``flush_all``, which readmits the server only when it answers.
    Sent while the node is still down, it fails, re-ejects the server
    and books no rejoin, so the node that comes back with its memory
    intact is never asked for its pre-crash bytes; the probe after the
    next cooldown wipes them before anything is read."""
    sim, client, (mcd,) = make_cluster(resilience=ResilienceConfig(cooldown=0.005))
    got = []

    def proc():
        yield from client.set("k", b"pre-crash", 9)
        mcd.node.fail()                     # memory intact
        yield from client.get("k")
        yield from client.get("k")          # second error: ejected
        assert client.ejected(0)
        yield sim.timeout(0.01)
        got.append((yield from client.get("k")))  # the probe, still down: fails
        got.append(client.ejected(0))
        got.append(client.stats.get("rejoins", 0))
        mcd.node.recover()
        got.append((yield from client.get("k")))  # cooling again: skipped
        got.append(mcd.engine._items["k"].value)  # never purged, never read
        yield sim.timeout(0.01)
        got.append((yield from client.get("k")))  # the probe purges first

    drive(sim, proc())
    assert got == [None, True, 0, None, b"pre-crash", None]
    assert client.stats.get("failed_probes") == 1
    assert client.stats.get("rejoins") == 1
    assert "k" not in mcd.engine._items


def test_concurrent_callers_share_one_rejoin_probe(monkeypatch):
    """Two requests racing past an elapsed cooldown must not both run
    the half-open probe: the first sets ``probing`` and purges, the
    second skips the server until the probe settles — one purge, one
    rejoin, never two."""
    monkeypatch.setattr(mc_client, "EJECT_AFTER", 1)
    sim, client, (mcd,) = make_cluster(resilience=ResilienceConfig(cooldown=0.005))

    def proc():
        yield from client.set("k", b"v", 1)
        mcd.node.fail()
        yield from client.get("k")      # error -> immediate ejection
        mcd.node.recover()
        yield sim.timeout(0.01)         # cooldown elapsed
        p1 = sim.process(client.get("a"))
        p2 = sim.process(client.get("b"))
        yield sim.all_of([p1, p2])

    drive(sim, proc())
    assert client.stats.get("rejoins") == 1
    assert client.stats.get("rejoin_purges") == 1
    # The loser of the race took the fast degraded path, not a probe.
    assert client.stats.get("ejected_skips") == 1
    assert not client.ejected(0)


def test_daemon_restart_is_provably_cold():
    sim = Simulator()
    net = Network(sim, IPOIB)
    mcd = MemcachedDaemon(sim, net, Node(sim, "mcd0"), 16 * MiB)
    mcd.engine.set("a", b"1", 1)
    mcd.engine.set("b", b"2", 1)
    old_engine = mcd.engine
    mcd.kill()
    mcd.restart()
    assert mcd.engine is not old_engine
    assert mcd.engine.get("a") is None
    assert mcd.engine.get("b") is None
    assert mcd.engine.stats.get("curr_items", 0) == 0
    assert mcd.crashes == 1 and mcd.restarts == 1
    assert mcd.node.alive


def test_kill_is_idempotent_on_dead_node():
    sim = Simulator()
    net = Network(sim, IPOIB)
    mcd = MemcachedDaemon(sim, net, Node(sim, "mcd0"), 16 * MiB)
    mcd.kill()
    mcd.kill()
    assert mcd.crashes == 1


def test_no_health_policy_keeps_historical_fail_fast():
    sim, client, (mcd,) = make_cluster(resilience=None)
    mcd.kill()

    def proc():
        for _ in range(4):
            v = yield from client.get("k")
            assert v is None

    drive(sim, proc())
    assert client.stats.get("ejections", 0) == 0
    assert client.stats.get("errors") == 4
