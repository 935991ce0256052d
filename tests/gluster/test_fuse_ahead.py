"""The FUSE crossing run ahead is the crossing slept on, one entry
cheaper for every op that sends.

``GlusterClient._crossing`` books the crossing and lets the op wind its
stack at once, its first message departing when the crossing ends.  On
an uncontended one-client testbed that must change nothing but the
scheduler entries: random op sequences run on twin testbeds — one with
the crossing ahead, one whose client sleeps on the crossing as a
``yield cpu.run(FUSE_OP_CPU)`` — must return the same replies at the
same instants, leave the same counters and the same busy time on every
station, and mint exactly one entry fewer for each op that sent a
message and exactly as many for each op that sent none (a hot-cache
hit, a skipped or failing op).  Covered: the hot cache and partial
fills on and off, a dead MCD, a flapping server under ``resilience``
(deadlined MCD calls run as timed legs), and a client CPU held busy
under an MCD deadline close to the round trip (the deadline runs from
the crossing's end, when the request may leave).

Spans and fops opened ahead start at ``ready``; one that closes before
it (nothing sent) lasts nothing, as when the op slept.
"""

import gc
from types import MethodType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observability, TestbedConfig, build_gluster_testbed
from repro.cluster import ResilienceConfig
from repro.core.config import IMCaConfig
from repro.gluster.client import GlusterClient
from repro.gluster.costs import FUSE_OP_CPU
from repro.gluster.iocache import IoCacheXlator
from repro.gluster.protocol import ClientProtocol
from repro.gluster.xlator import Xlator
import repro.memcached.client as mc_client
from repro.net.fabric import Node
from repro.net.rpc import Endpoint
from repro.sim.process import departure
from repro.sim.station import FifoStation
from repro.util.units import KiB, MiB

FILES = 3
SLOT = 2 * KiB

CONFIGS = {
    "default": {},
    "hot_cache": {"imca": IMCaConfig(hot_cache_bytes=64 * KiB)},
    "partial_fills": {"imca": IMCaConfig(partial_fills=True)},
    "hot_cache_and_partial_fills": {
        "imca": IMCaConfig(hot_cache_bytes=64 * KiB, partial_fills=True)
    },
    "dead_mcd": {},
    "flapping_server_under_resilience": {"resilience": ResilienceConfig()},
    "busy_client_tight_deadline": {"resilience": ResilienceConfig()},
}
#: The MCD deadline a config runs under, when not ``MCD_TIMEOUT``: an
#: uncontended warm stat's MCD round trip fits in 110 us, barely.
DEADLINES = {"busy_client_tight_deadline": 110e-6}


def _waiting_crossing(self, fop):
    """The crossing slept on: wake when the CPU visit ends, then wind."""
    yield self.node.cpu.run(FUSE_OP_CPU)
    return (yield from fop)


def _messages(tb):
    values = tb.net.stats.values
    return values.get("messages", 0) + values.get("undeliverable", 0)


def _stations(sim):
    return sorted(
        (s.name, s.busy_time, s.jobs)
        for s in gc.get_objects()
        if isinstance(s, FifoStation) and s.sim is sim
    )


def _apply(tb, client, kind, f, slot, nslots, fds):
    """One op of the sequence; its reply, as comparable data."""
    path = f"/t/f{f}"
    off, size = slot * SLOT, nslots * SLOT
    if kind == "create":
        fds[f] = yield from client.create(path)
        return fds[f]
    if kind == "open":
        fds[f] = yield from client.open(path)
        return fds[f]
    if kind == "stat":
        st = yield from client.stat(path)
        return (st.ino, st.size, st.mtime, st.ctime)
    if kind == "unlink":
        return (yield from client.unlink(path))
    if kind == "kill_mcd":
        tb.mcds[0].kill()
        return None
    if kind == "busy_client":
        # Every client core busy for `nslots` x 100 us: the next
        # crossing queues behind it.
        cpu = client.node.cpu
        for _ in range(cpu.servers):
            cpu.reserve(nslots * 100e-6)
        return None
    if kind == "to_cooldown_end":
        # Sleep until 5 us before the next ejection cooldown ends: the
        # next op's crossing straddles it.
        ends = [h.ejected_until for h in tb.cmcaches[0].mc._health.values()
                if h.ejected_until > tb.sim.now + 5e-6]
        if ends:
            yield tb.sim.at(min(ends) - 5e-6)
        return bool(ends)
    if kind == "flap_server":
        # Down now, up again after `nslots` ms: ops meanwhile retry.
        node = tb.server.node
        node.fail()
        tb.sim.at(tb.sim.now + nslots * 1e-3).callbacks.append(lambda _: node.recover())
        return None
    if f not in fds:
        return "no fd"
    if kind == "read":
        got = yield from client.read(fds[f], off, size)
        return (got.offset, got.size, got.data)
    if kind == "write":
        data = bytes([(f * 31 + slot) % 251]) * size
        return (yield from client.write(fds[f], off, size, data))
    assert kind == "close"
    return (yield from client.close(fds.pop(f)))


def _run(config, ops, ahead):
    with pytest.MonkeyPatch.context() as mp:
        if config in DEADLINES:
            mp.setattr(mc_client, "MCD_TIMEOUT", DEADLINES[config])
        return _run_deadlined(config, ops, ahead)


def _run_deadlined(config, ops, ahead):
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=2, mcd_memory=1 * MiB, **CONFIGS[config])
    )
    sim, client = tb.sim, tb.clients[0]
    # Book the stations' statistics too, so the twins compare them.
    sim.track_station_stats = True
    if not ahead:
        client._crossing = MethodType(_waiting_crossing, client)
    fds = {}
    records = []

    def drive():
        for f in range(FILES):
            fds[f] = yield from client.create(f"/t/f{f}")
        for op in ops:
            seq, sent = sim._seq, _messages(tb)
            try:
                reply = yield from _apply(tb, client, *op, fds)
            except Exception as exc:  # the twin must raise the same, at the same instant
                reply = ("raised", type(exc).__name__, str(exc))
            records.append((op, reply, sim.now, sim._seq - seq, _messages(tb) - sent))

    sim.process(drive())
    sim.run()
    counters = (
        tb.cm_stats(), tb.sm_stats(), tb.mcclient_stats(), tb.mcd_stats(),
        tb.net.stats.as_dict(), dict(client.stats.values),
    )
    return records, counters, _stations(sim)


def _ops(faults):
    kinds = ["read", "read", "read", "write", "write", "stat", "stat", "open", "close",
             "create", "unlink"] + faults
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(0, FILES - 1),
            st.integers(0, 15),  # first 2 KiB slot
            st.integers(1, 8),  # slots (or, for a flap, ms down)
        ),
        min_size=1,
        max_size=30,
    )


def _check_twins(config, ops):
    ahead, ahead_counters, ahead_stations = _run(config, ops, ahead=True)
    waited, waited_counters, waited_stations = _run(config, ops, ahead=False)
    assert [(op, reply, at) for op, reply, at, _, _ in ahead] == [
        (op, reply, at) for op, reply, at, _, _ in waited
    ]
    assert ahead_counters == waited_counters
    assert ahead_stations == waited_stations
    for (op, *_, entries, sent), (_, *_, want, want_sent) in zip(ahead, waited):
        assert sent == want_sent
        assert entries == (want - 1 if sent else want), op


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["default", "hot_cache", "partial_fills", "hot_cache_and_partial_fills"]),
    _ops([]),
)
def test_the_crossing_ahead_matches_the_crossing_slept_on(config, ops):
    _check_twins(config, ops)


@settings(max_examples=20, deadline=None)
@given(_ops(["kill_mcd"]))
def test_the_crossing_ahead_matches_with_a_dead_mcd(ops):
    _check_twins("dead_mcd", [("kill_mcd", 0, 0, 1)] + ops)


@settings(max_examples=20, deadline=None)
@given(_ops(["flap_server", "flap_server"]))
def test_the_crossing_ahead_matches_with_a_flapping_server_under_resilience(ops):
    _check_twins("flapping_server_under_resilience", ops)


@settings(max_examples=20, deadline=None)
@given(_ops(["busy_client", "busy_client"]))
def test_the_crossing_ahead_matches_behind_a_busy_client_with_a_tight_deadline(ops):
    _check_twins("busy_client_tight_deadline", ops)


def test_an_ejection_cooldown_ending_inside_the_crossing_is_over_for_the_op():
    """Health decisions read the instant the request may leave: a
    cooldown that ends during the crossing has ended for the op (it
    probes the daemon back in, as the op that slept on it did)."""
    warm = [op for f in range(FILES) for op in (("stat", f, 0, 1), ("read", f, 0, 2))]
    ops = [("kill_mcd", 0, 0, 1)] + warm * 3 + [("to_cooldown_end", 0, 0, 1)] + warm
    records, counters, _ = _run("flapping_server_under_resilience", ops, ahead=True)
    assert [reply for op, reply, *_ in records if op[0] == "to_cooldown_end"] == [True]
    assert counters[2].get("failed_probes", 0) > 0
    _check_twins("flapping_server_under_resilience", ops)


def test_an_io_cache_timeout_ending_inside_the_crossing_has_ended_for_the_op():
    """A read whose crossing straddles the end of the io-cache
    validation window revalidates, as the read that slept on it did."""
    def run(ahead):
        tb = build_gluster_testbed(TestbedConfig(num_clients=1))
        node = Node(tb.sim, "io-cache-client")
        cache = IoCacheXlator(tb.sim, cache_timeout=1e-3)
        stack = Xlator.build_stack([cache, ClientProtocol(Endpoint(tb.net, node), tb.server)])
        client = GlusterClient(tb.sim, node, stack)
        if not ahead:
            client._crossing = MethodType(_waiting_crossing, client)
        log = []

        def drive():
            fd = yield from client.create("/f")
            yield from client.write(fd, 0, 4 * KiB, b"z" * 4 * KiB)
            yield from client.read(fd, 0, 4 * KiB)
            yield tb.sim.at(cache._files["/f"].validated_at + 1e-3 - 5e-6)
            got = yield from client.read(fd, 0, 4 * KiB)
            log.append((tb.sim.now, got.data))

        tb.sim.process(drive())
        tb.sim.run()
        return log, dict(cache.stats.values)

    ahead, waited = run(True), run(False)
    assert ahead == waited
    assert ahead[1]["revalidations"] == 2


def test_a_deadline_runs_from_the_crossing_end(monkeypatch):
    """Queueing behind a busy client CPU spends none of an MCD call's
    budget: a warm stat behind 300 us of CPU work is the uncontended
    stat, 300 us later, with no timeout and no retry."""
    monkeypatch.setattr(mc_client, "MCD_TIMEOUT", DEADLINES["busy_client_tight_deadline"])
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=2, mcd_memory=1 * MiB,
                      **CONFIGS["busy_client_tight_deadline"])
    )
    sim, client = tb.sim, tb.clients[0]
    fds, took = {}, []

    def drive():
        yield from _apply(tb, client, "create", 0, 0, 1, fds)
        for kind in ("stat", "stat", "busy_client", "stat"):
            t = sim.now
            yield from _apply(tb, client, kind, 0, 0, 3, fds)
            took.append(sim.now - t)

    sim.process(drive())
    sim.run()
    _, warm, busy, behind = took
    assert busy == 0.0
    assert abs(behind - (300e-6 + warm)) < 1e-12
    rpc = tb.cmcaches[0].mc.endpoint.stats.values
    assert rpc.get("timeouts", 0) == 0 and rpc.get("retries", 0) == 0
    assert tb.mcclient_stats().get("errors", 0) == 0


def _assert_no_negative_time(tracer):
    for span in tracer.spans:
        assert span.end >= span.start, span.name
        assert span.end - span.start >= span.child_time, span.name
    for tier, hist in tracer.tier_stats.items():
        assert hist.stats.min >= 0.0, tier
    for name, hist in tracer.op_stats.items():
        assert hist.stats.min >= 0.0, name


def test_a_span_closed_ahead_of_the_crossing_lasts_nothing():
    """An ejected MCD is refused at once, inside an MCD span opened at
    ``ready``: that span lasts nothing, no exclusive time goes
    negative."""
    obs = Observability(trace=True, oplog=True)
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=2, mcd_memory=1 * MiB,
                      resilience=ResilienceConfig()),
        obs=obs,
    )
    sim, client = tb.sim, tb.clients[0]
    fds = {}

    def drive():
        for f in range(FILES):
            yield from _apply(tb, client, "create", f, 0, 1, fds)
            yield from _apply(tb, client, "write", f, 0, 8, fds)
        yield from _apply(tb, client, "kill_mcd", 0, 0, 1, fds)
        for _ in range(4):
            for f in range(FILES):
                yield from _apply(tb, client, "stat", f, 0, 1, fds)
                yield from _apply(tb, client, "read", f, 0, 8, fds)

    sim.process(drive())
    sim.run()
    assert tb.mcclient_stats()["ejected_skips"] > 0
    _assert_no_negative_time(obs.tracer)
    for rec in obs.oplog.records:
        assert all(t >= 0.0 for t in rec.tiers.values()), rec.tiers


class _Probe(Xlator):
    """Above the IMCa client stack: each read's and stat's time from
    when its request may leave (``departure``) to its return."""

    def __init__(self, sim):
        super().__init__("probe")
        self.sim = sim
        self.took = {"read": [], "stat": []}

    def _timed(self, fop, gen):
        t0 = departure(self.sim)
        result = yield from gen
        self.took[fop].append(self.sim.now - t0)
        return result

    def read(self, path, offset, size):
        return self._timed("read", self._down().read(path, offset, size))

    def stat(self, path):
        return self._timed("stat", self._down().stat(path))


def test_a_fop_that_returns_ahead_of_the_crossing_took_nothing():
    """A hot-cache hit returns before the crossing ends, so no time has
    passed for it; the op still ends at the crossing's end, and no span
    or op record goes negative."""
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=2, mcd_memory=1 * MiB, **CONFIGS["hot_cache"]),
        obs=Observability(trace=True),
    )
    sim, client = tb.sim, tb.clients[0]
    probe = _Probe(sim)
    client.stack = Xlator.build_stack([probe, client.stack])
    fds = {}

    def drive():
        yield from _apply(tb, client, "create", 0, 0, 1, fds)
        yield from _apply(tb, client, "write", 0, 0, 4, fds)
        for _ in range(3):
            yield from _apply(tb, client, "read", 0, 0, 2, fds)
            yield from _apply(tb, client, "stat", 0, 0, 1, fds)

    sim.process(drive())
    sim.run()
    reads, stats = probe.took["read"], probe.took["stat"]
    assert len(reads) == len(stats) == 3
    assert max(reads[1:]) <= 0.0 and max(stats) <= 0.0
    assert reads[0] > 0.0  # the first read went to the MCDs
    _assert_no_negative_time(tb.obs.tracer)


def test_a_hot_cache_hit_sends_nothing_and_costs_what_it_did():
    ops = [("read", 0, 0, 2), ("read", 0, 0, 2), ("stat", 0, 0, 1), ("stat", 0, 0, 1)]
    ops = [("write", 0, 0, 4)] + ops
    ahead, *_ = _run("hot_cache", ops, ahead=True)
    waited, *_ = _run("hot_cache", ops, ahead=False)
    sent = [rec[4] for rec in ahead]
    assert 0 in sent and any(sent)  # hits send nothing; the first read does
    assert [rec[3] for rec in ahead] == [
        rec[3] - (1 if rec[4] else 0) for rec in waited
    ]
