"""A batch leg is a booked callback that lands its reply on its join
(DESIGN §7, "Legs are booked callbacks" and "Landed legs"):
``get_multi``, ``set_multi`` and ``delete_multi`` over K MCDs cost
K + 1 scheduler entries, not 2K + 1, and no leg drives a generator.

The reference is the same client with every leg a strand that sleeps on
its response and then returns it (``WaitingClient``).  Random batch
sequences run through both on twin banks of 1-4 MCDs with 1- or 8-core
nodes, one op at a time, and every reply, engine item, LRU order,
counter, station booking and completion instant must be equal —
exactly, since a landing is the float the response transfer booked.
Only the entry count differs.  Legs whose RPC fails — a dead MCD, a
killed client, an MCD killed while the request is on the wire, a lost
request or response — keep their waits and book one error each; a
handler that raises fails the join as a strand's exception would; and a
traced warm read attributes every tier exactly as the reference.

Under a health policy the reference keeps the strand path: a strand
skips a cooling server, probes one whose cooldown is over, races each
call against the deadline as a child process, and books its server's
health when it wakes.  The policy's legs (``_TrackedLeg``) must equal
it through kills, flaps, lost frames, missed deadlines and probes, with
no more entries, and fewer with a deadline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observability, TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.memcached import McError, MemcacheClient, MemcachedDaemon
from repro.memcached.client import HealthPolicy
from repro.memcached.daemon import SERVICE, command_cost
from repro.net import IPOIB, Endpoint, Network, Node, RpcError, RpcUnavailable
from repro.sim import Simulator
from repro.sim.events import PENDING, Event
from repro.sim.process import departure
from repro.util import KiB, MiB


KEYS = [f"k{i}" for i in range(12)]


def _waiting_fork(self, op, legs, name, errors=None):
    """The reference fork: each leg a strand that sleeps on its
    response, then returns it (None, booked as one ``errors``, when its
    RPC failed)."""
    return self.endpoint.net.sim.gather(
        [WaitingClient._strand(self, idx, op, payload) for idx, payload in legs], name=name
    )


class _Race(Event):
    """The any-of condition the kernel had when these twins were pinned,
    kept here as it was, since the reference's entry counts depend on how
    it schedules: one entry when the first child triggers OK (valued with
    the children triggered OK so far) or fails (its failure, defused)."""

    __slots__ = ("_events",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event):
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed({ev: ev._value for ev in self._events if ev.triggered and ev._ok})


def _defuse_failure(event):
    """An abandoned call's eventual failure has nobody to tell."""
    if not event._ok:
        event._defused = True


class WaitingClient(MemcacheClient):
    """The strand reference.  Under a health policy an MCD RPC is a
    generator in the caller's frame (a batch leg's strand, or the op's
    own): it skips a cooling server, probes one whose cooldown is over
    with a ``flush_all`` before its own call, races each call against
    the deadline as a child process, and books the server's health when
    it wakes."""

    _fork = _waiting_fork

    def _strand(self, idx, op, payload):
        try:
            if self.tracer.enabled:
                with self.tracer.span("mcd", "mc.batch"):
                    reply = yield from self._call(idx, op, payload)
            else:
                reply = yield from self._call(idx, op, payload)
        except RpcError:
            self.stats.inc("errors")
            return None
        return reply

    def _call(self, idx, op, payload):
        if self.health is None:
            return MemcacheClient._call(self, idx, op, payload)
        return self._call_waiting(idx, op, payload)

    def _call_waiting(self, idx, op, payload):
        assert op != "flush_all"  # (a flush is its own probe; no twin sends one)
        h = self._health[idx]
        if h.ejected_until >= 0.0:
            if self._cooling(idx):
                self.stats.inc("ejected_skips")
                raise RpcUnavailable("ejected")
            h.probing = True
            try:
                yield from self._deadlined(idx, "flush_all", None)
            except RpcError:
                h.ejected_until = self.endpoint.net.sim.now + self.health.cooldown
                self.stats.inc("failed_probes")
                raise
            finally:
                h.probing = False
            self.stats.inc("rejoin_purges")
            h.ejected_until = -1.0
            h.consecutive_errors = 0
            self.stats.inc("rejoins")
        try:
            reply = yield from self._deadlined(idx, op, payload)
        except RpcError:
            self._note_failure(h)
            raise
        h.consecutive_errors = 0
        return reply

    def _deadlined(self, idx, op, payload):
        """The call, raced against ``departure + timeout`` as a child
        process: on timeout the call is abandoned, not cancelled."""
        call = self.endpoint.call(
            self.membership.members[idx].daemon.node, SERVICE, (op, payload),
            *command_cost(op, payload),
        )
        if self.health.timeout is None:
            return (yield from call)
        sim = self.endpoint.net.sim
        proc = sim.process(call, name=f"rpc.{SERVICE}")
        deadline = sim.at(departure(sim) + self.health.timeout)
        yield _Race(sim, (proc, deadline))
        if proc.triggered:
            if proc.ok:
                return proc.value
            proc.defused()
            raise proc.value
        self.endpoint.stats.inc("timeouts")
        if proc.callbacks is not None:
            proc.callbacks.append(_defuse_failure)
        raise RpcError(f"{op} on MCD {idx} missed its deadline")


def _bank(n, cores, client_cls, **kwargs):
    sim = Simulator()
    net = Network(sim, IPOIB)
    ep = Endpoint(net, Node(sim, "client"))
    daemons = [
        MemcachedDaemon(sim, net, Node(sim, f"m{i}", cores=cores), 4 * MiB)
        for i in range(n)
    ]
    return sim, client_cls(ep, daemons, **kwargs), daemons


def _owners(mc, op, arg):
    """The number of legs *op* sends: one per distinct primary."""
    keys = [a[0] for a in arg] if op == "set_multi" else arg
    return len({mc.owners(k)[0] for k in keys})


def _drive(sim, mc, ops):
    """Run *ops* one at a time; per op: (result, completion instant,
    scheduler entries minted, legs sent).  An op that raises records
    its exception's type and message as its result."""
    out = []

    def proc():
        for op, arg, advance in ops:
            if advance:
                yield sim.timeout(advance)
            legs = _owners(mc, op, arg)
            seq = sim._seq
            try:
                result = yield from getattr(mc, op)(arg)
            except McError as exc:
                result = (type(exc), str(exc))
            out.append((result, sim.now, sim._seq - seq, legs))

    sim.process(proc())
    sim.run()
    return out


def _stations(mc, daemons):
    net = mc.endpoint.net
    nodes = [mc.endpoint.node, *(d.node for d in daemons)]
    stations = []
    for node in nodes:
        nic = net.nic(node)
        stations += [node.cpu, nic.tx, nic.rx]
    return [(s.name, sorted(s._free), s.busy_time, s.jobs) for s in stations]


def _engines(daemons):
    out = []
    for d in daemons:
        eng = d.engine
        items = [
            (k, it.value, it.nbytes, it.flags, it.exptime, it.cas, it.seq, it.slab.index)
            for k, it in eng._items.items()
        ]
        lru = {idx: list(order) for idx, order in eng._lru.items()}
        out.append((items, lru, eng.stats.as_dict()))
    return out


def _state(sim, mc, daemons):
    """Everything the model can see after a run, entry counts aside."""
    return (
        sim.now, _engines(daemons), _stations(mc, daemons), mc.stats.as_dict(),
        mc.endpoint.stats.as_dict(), mc.endpoint.net.stats.as_dict(),
    )


def _twins(ops, n=4, cores=1, setup=None, **kwargs):
    """Run *ops* on a callback-leg bank and a waiting-leg bank;
    ``setup(sim, mc, daemons)`` prepares each before the run."""
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(n, cores, cls, **kwargs)
        if setup is not None:
            setup(sim, mc, daemons)
        runs.append((_drive(sim, mc, ops), _state(sim, mc, daemons)))
    return runs


def _expected_entries(op, legs):
    """(landed, waiting): a join of K legs mints K request entries and
    one join entry, plus K responses when the legs wait on them.  A
    single-leg mutation runs in the caller's frame, with no join."""
    if op != "get_multi" and legs == 1:
        return 2, 2
    return legs + 1, 2 * legs + 1


key = st.sampled_from(KEYS)
item = st.tuples(
    key, st.integers(0, 999), st.sampled_from((1, 100, 2 * KiB, 16 * KiB)),
    st.just(0), st.just(0),
)
batch = st.one_of(
    st.tuples(st.just("get_multi"), st.lists(key, min_size=1, max_size=8)),
    st.tuples(st.just("set_multi"), st.lists(item, min_size=1, max_size=8)),
    st.tuples(st.just("delete_multi"), st.lists(key, min_size=1, max_size=6)),
)
batches = st.lists(
    st.tuples(batch, st.sampled_from((0.0, 0.0, 1e-6, 3e-4))), min_size=1, max_size=20
)

#: Half the keys stored before the sequence starts, so gets hit and miss.
SEED = [("set_multi", [(k, i, 2 * KiB, 0, 0) for i, k in enumerate(KEYS[::2])], 0.0)]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.sampled_from((1, 8)), batches)
def test_landed_batches_match_waiting_legs_with_k_fewer_entries(n, cores, sequence):
    ops = SEED + [(op, arg, advance) for (op, arg), advance in sequence]
    (landed, state), (waited, want_state) = _twins(ops, n, cores)

    assert len(landed) == len(waited) == len(ops)
    for (op, arg, _), got, want in zip(ops, landed, waited):
        result, when, entries, legs = got
        want_result, want_when, want_entries, want_legs = want
        assert result == want_result, (op, arg)
        assert when == want_when, (op, arg)
        assert legs == want_legs
        assert (entries, want_entries) == _expected_entries(op, legs), (op, arg, legs)
    assert state == want_state
    assert "errors" not in state[3]


# --------------------------------------------------------------------------- #
# failed legs keep their waits
# --------------------------------------------------------------------------- #
#: One key per MCD of a 4-MCD crc32 bank.
SPREAD = ["k0", "k1", "k3", "k5"]

FAILED_OPS = [
    ("get_multi", SPREAD),
    ("set_multi", [(k, 7, 2 * KiB, 0, 0) for k in SPREAD]),
    ("delete_multi", SPREAD),
]
IDS = [op for op, _ in FAILED_OPS]


def test_the_spread_keys_reach_every_mcd():
    _, mc, _ = _bank(4, 1, MemcacheClient)
    assert sorted(mc.owners(k)[0] for k in SPREAD) == [0, 1, 2, 3]


def _one_failed_leg(op, arg, setup):
    """Twin runs of one batch over the four MCDs in which *setup* makes
    exactly one leg fail; asserts the twins agree and returns the
    callback run's (entries, legs) and the waiting run's entries."""
    (([(result, when, entries, legs)], state),
     ([(want_result, want_when, want_entries, _)], want_state)) = _twins(
        [(op, arg, 0.0)], setup=setup
    )
    assert (result, when, state) == (want_result, want_when, want_state)
    assert state[3]["errors"] == 1
    assert legs == 4
    return entries, want_entries


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_dead_mcd_keeps_its_wait_and_books_one_error(op, arg):
    def kill(sim, mc, daemons):
        daemons[mc.owners(SPREAD[2])[0]].kill()

    # The dead leg's undeliverable request is its one entry either way;
    # the three live legs land.
    assert _one_failed_leg(op, arg, kill) == (4 + 1, 2 * 4)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_an_mcd_killed_while_the_request_is_on_the_wire_fails_at_arrival(op, arg):
    def kill_later(sim, mc, daemons):
        victim = daemons[mc.owners(SPREAD[2])[0]]
        sim.at(1e-9).callbacks.append(lambda _: victim.kill())

    # Its request was delivered on the books: the leg wakes at the
    # arrival, finds the node dead and books the error — one entry.
    entries, want_entries = _one_failed_leg(op, arg, kill_later)
    assert (entries, want_entries) == (4 + 1, 2 * 3 + 1 + 1)


class _Script:
    """A loss rng that answers the draws it is given, in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def _lossy(draws):
    """Arm loss on the third spread key's MCD, every draw scripted: a
    draw below 0.5 drops the message it is drawn for."""

    def setup(sim, mc, daemons):
        net = mc.endpoint.net
        net.loss_rng = _Script(draws)
        net.degrade(daemons[mc.owners(SPREAD[2])[0]].node, loss_prob=0.5)

    return setup


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_lost_request_keeps_its_wait_and_books_one_error(op, arg):
    assert _one_failed_leg(op, arg, _lossy([0.1])) == (4 + 1, 2 * 4)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_lost_response_keeps_its_wait_and_books_one_error(op, arg):
    # The request arrives (the command runs), the response is lost: the
    # leg books the lost frame's event and fails on it, as the strand.
    assert _one_failed_leg(op, arg, _lossy([0.9, 0.1])) == (4 + 2, 2 * 4 + 1)


@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_killed_client_keeps_every_wait_and_books_an_error_per_leg(op, arg):
    def kill_client(sim, mc, daemons):
        # Every request is booked end to end when it is sent; the client
        # is gone by the time the replies leave.
        sim.at(1e-9).callbacks.append(lambda _, node=mc.endpoint.node: node.fail())

    (([(result, when, entries, legs)], state),
     ([(want_result, want_when, want_entries, _)], want_state)) = _twins(
        [(op, arg, 0.0)], setup=kill_client
    )
    assert (result, when, state) == (want_result, want_when, want_state)
    assert state[3]["errors"] == legs == 4
    # Every response is an undeliverable event, yielded by both.
    assert entries == want_entries == 2 * legs + 1


BAD_OPS = [
    ("get_multi", ["k0", "k1", "bad key", "k5"]),
    ("set_multi", [(k, 7, 2 * KiB, 0, 0) for k in ("k0", "k1", "bad key", "k5")]),
    ("delete_multi", ["k0", "k1", "bad key", "k5"]),
]


@pytest.mark.parametrize("op, arg", BAD_OPS, ids=[op for op, _ in BAD_OPS])
def test_a_handler_that_raises_fails_the_join_as_the_strand_does(op, arg):
    """An invalid key makes the MCD's handler raise ``McError``: the
    join fails with it at that request's arrival, the batch raises it
    to the caller, and the other legs finish on their own."""
    ops = SEED + [(op, arg, 0.0), ("get_multi", KEYS, 1e-3)]
    (out, state), (want_out, want_state) = _twins(ops)
    assert [o[:2] for o in out] == [o[:2] for o in want_out]
    assert state == want_state
    result = out[1][0]
    assert result[0] is McError and "whitespace" in result[1]
    assert "errors" not in state[3]


# --------------------------------------------------------------------------- #
# under a health policy
# --------------------------------------------------------------------------- #
def _policy(timeout=None):
    """Eject on the second error in a row; probe 200 us later."""
    return HealthPolicy(eject_after=2, cooldown=2e-4, timeout=timeout)


def _drive_streams(sim, mc, streams):
    """Run each op list of *streams* in a process of its own, all at
    once; per stream, per op: (result, completion instant)."""
    out = [[] for _ in streams]

    def proc(ops, log):
        for op, arg, advance in ops:
            if advance:
                yield sim.timeout(advance)
            try:
                result = yield from getattr(mc, op)(arg)
            except McError as exc:
                result = (type(exc), str(exc))
            log.append((result, sim.now))

    for ops, log in zip(streams, out):
        sim.process(proc(ops, log))
    sim.run()
    return out


def _policy_twins(streams, n=4, cores=1, setup=None, timeout=None):
    """*streams* on a tracked-leg bank and a strand bank under the same
    policy: per bank, (per-stream results, state, scheduler entries)."""
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(n, cores, cls, health=_policy(timeout))
        if setup is not None:
            setup(sim, mc, daemons)
        out = _drive_streams(sim, mc, streams)
        runs.append((out, _state(sim, mc, daemons), sim._seq))
    return runs


class _Seeded:
    """A loss rng both twins draw from in the same order."""

    def __init__(self, seed):
        self.x = seed

    def random(self):
        self.x = (self.x * 1103515245 + 12345) % 2**31
        return self.x / 2**31


def _faults(schedule, loss_seed):
    """Arm *schedule* — ``(instant, mcd, action)`` — and, with a
    *loss_seed*, drop a fifth of the frames that touch MCD 0."""

    def setup(sim, mc, daemons):
        for at, i, action in schedule:
            d = daemons[i % len(daemons)]
            act = {"kill": d.kill, "restart": d.restart, "fail": d.node.fail,
                   "recover": d.node.recover}[action]
            sim.at(at).callbacks.append(lambda _, act=act: act())
        if loss_seed:
            net = mc.endpoint.net
            net.loss_rng = _Seeded(loss_seed)
            net.degrade(daemons[0].node, loss_prob=0.2)

    return setup


fault = st.tuples(
    st.floats(0.0, 2e-3), st.integers(0, 3),
    st.sampled_from(("kill", "restart", "fail", "recover")),
)
#: No deadline; deadlines that many requests and responses miss; one
#: that only a queue misses; one nothing misses.
timeouts = st.sampled_from((None, 30e-6, 60e-6, 120e-6, 1e-3))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4), st.sampled_from((1, 8)), timeouts, batches,
    st.lists(st.tuples(batch, st.sampled_from((1.3e-6, 2.7e-5, 3.1e-4))), max_size=6),
    st.lists(fault, max_size=6), st.sampled_from((0, 0, 7, 11)),
)
def test_legs_under_a_health_policy_match_the_strands(
    n, cores, timeout, sequence, other, schedule, loss_seed
):
    """Random batch sequences, a second one in flight beside the first,
    kills, flaps and lost frames: every reply, completion instant and
    piece of state — health counters, timeouts and engine items
    included — equals the strands', for no more entries.

    A leg that times out books its outcome in the entry its deadline
    was booked with, a strand in an entry minted at the deadline: the
    instant is the same, but not the order against another op's entry
    at that instant.  So the second sequence sleeps for times off the
    first one's grid, and the twin compares instants, not how two
    outcomes due at one instant are ordered.  The run's last instant is
    not compared either: an abandoned call's response wakes its
    strand's child process, and nothing of a leg's."""
    streams = [
        SEED + [(op, arg, advance) for (op, arg), advance in sequence],
        [(op, arg, advance) for (op, arg), advance in other],
    ]
    (out, state, entries), (want_out, want_state, want_entries) = _policy_twins(
        streams, n, cores, _faults(schedule, loss_seed), timeout
    )
    assert out == want_out
    assert state[1:] == want_state[1:]
    assert entries <= want_entries


def _one_batch(op, arg, setup=None, timeout=None):
    """Twin runs of one batch over the four MCDs (after SEED); asserts
    they agree and returns (the state, the batch's entries, the
    strands' entries)."""
    ops = SEED + [(op, arg, 1e-3)]
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(4, 1, cls, health=_policy(timeout))
        if setup is not None:
            setup(sim, mc, daemons)
        runs.append((_drive(sim, mc, ops), _state(sim, mc, daemons)))
    (out, state), (want_out, want_state) = runs
    assert [o[:2] for o in out] == [o[:2] for o in want_out]
    # (Not the run's last instant: see the random twin.)
    assert state[1:] == want_state[1:]
    assert out[1][3] == 4
    return state, out[1][2], want_out[1][2]


#: (timeout, legs' entries, strands' entries) for a healthy batch of 4:
#: a leg wakes at its request and at its response (or settles in the
#: join's entry, as the last pending), and with a deadline also wakes
#: there; a strand under a deadline also pays its child process's
#: start and end, its deadline timer and its race.
HEALTHY = [(None, 2 * 4 + 1, 2 * 4 + 1), (1e-3, 3 * 4 + 1, 6 * 4 + 1)]


@pytest.mark.parametrize("timeout, entries, want", HEALTHY)
@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_healthy_batch_under_a_policy_pins_its_entries(op, arg, timeout, entries, want):
    state, got, want_got = _one_batch(op, arg, timeout=timeout)
    assert (got, want_got) == (entries, want)
    assert "errors" not in state[3]


def _victim(mc, daemons):
    return daemons[mc.owners(SPREAD[2])[0]]


@pytest.mark.parametrize("timeout", [None, 1e-3])
@pytest.mark.parametrize("op, arg", FAILED_OPS, ids=IDS)
def test_a_killed_mcd_under_a_policy_books_its_error_at_the_failure(op, arg, timeout):
    """The dead leg's undeliverable request is its one wake, and its
    deadline one more (the streak moves when it fails, not when it is
    booked); the live three wake as a healthy leg does.  The dead
    strand under a deadline pays its child's start and failure, its
    timer and its race."""
    def kill(sim, mc, daemons):
        sim.at(5e-4).callbacks.append(lambda _: _victim(mc, daemons).kill())

    state, got, want_got = _one_batch(op, arg, kill, timeout)
    assert state[3]["errors"] == 1 and "ejections" not in state[3]
    assert (got, want_got) == {None: (8, 8), 1e-3: (12, 24)}[timeout]


@pytest.mark.parametrize("draws", [[0.1], [0.9, 0.1]], ids=["request", "response"])
@pytest.mark.parametrize("timeout", [None, 1e-3])
def test_a_lost_frame_under_a_policy_is_one_error(draws, timeout):
    def setup(sim, mc, daemons):
        net = mc.endpoint.net
        sim.at(5e-4).callbacks.append(
            lambda _: (setattr(net, "loss_rng", _Script(draws)),
                       net.degrade(_victim(mc, daemons).node, loss_prob=0.5))
        )

    state, got, want_got = _one_batch(*FAILED_OPS[0], setup, timeout)
    assert state[3]["errors"] == 1
    lost = {"request": 0, "response": 1}[("request", "response")[len(draws) - 1]]
    assert (got, want_got) == {
        None: (8 + lost, 8 + lost), 1e-3: (12 + lost, 24 + lost)
    }[timeout]


@pytest.mark.parametrize("only_the_response", [False, True], ids=["request", "response"])
def test_a_missed_deadline_lands_none_at_it_and_the_command_still_runs(only_the_response):
    """One MCD's link is slowed by the whole deadline: the leg settles
    None at the deadline with one ``timeouts``, and the command still
    runs on the MCD (the multi-set still stores there).  With
    *only_the_response* the link slows just after the batch (which
    starts at 1.1248 ms) has sent its requests; the late response then
    holds the client's receive NIC from when it is booked, so the
    response booked after it misses the deadline too (ROADMAP item 1).
    A timed-out leg mints no landing wake, and its strand's child
    finishes after the batch does."""
    def slow(sim, mc, daemons):
        net = mc.endpoint.net
        at = 1.13e-3 if only_the_response else 5e-4
        sim.at(at).callbacks.append(
            lambda _: net.degrade(_victim(mc, daemons).node, extra_latency=2e-4)
        )

    state, got, want_got = _one_batch(*FAILED_OPS[1], slow, timeout=2e-4)
    late = 2 if only_the_response else 1
    assert state[3]["errors"] == state[4]["timeouts"] == late
    assert state[3]["sets"] == 6 + 4 - late
    assert sum(engine[2]["cmd_set"] for engine in state[1]) == 6 + 4
    assert (got, want_got) == (4 * 3 + 1 - late, 23)


@pytest.mark.parametrize("recovered", [True, False], ids=["succeeds", "fails"])
@pytest.mark.parametrize("timeout", [None, 1e-3])
def test_a_probe_after_the_cooldown_runs_as_a_leg_before_the_real_one(recovered, timeout):
    """Two failed batches eject MCD 2's owner; after the cooldown the
    next batch's leg to it is a ``flush_all`` probe whose answer
    readmits it and starts the real leg (or, still down, re-ejects)."""
    ops = SEED + [("get_multi", SPREAD, 1e-3), ("get_multi", SPREAD, 0.0),
                  ("get_multi", SPREAD, 1e-3)]

    def flap(sim, mc, daemons):
        victim = _victim(mc, daemons)
        sim.at(5e-4).callbacks.append(lambda _: victim.node.fail())
        if recovered:
            sim.at(1.5e-3).callbacks.append(lambda _: victim.node.recover())

    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(4, 1, cls, health=_policy(timeout))
        flap(sim, mc, daemons)
        runs.append((_drive(sim, mc, ops), _state(sim, mc, daemons)))
    (out, state), (want_out, want_state) = runs
    assert [o[:2] for o in out] == [o[:2] for o in want_out]
    assert state == want_state
    stats = state[3]
    assert stats["ejections"] == 1
    if recovered:
        assert (stats["rejoin_purges"], stats["rejoins"]) == (1, 1)
        assert "failed_probes" not in stats
    else:
        assert stats["failed_probes"] == 1 and "rejoins" not in stats
    # The probe batch: a probe that answers and the real leg after it
    # each wake as a healthy leg does; one sent to the dead node wakes
    # at its failure (and its deadline).  A strand's probe is a call
    # of its own in the strand's frame, deadline race included.
    assert (out[3][2], want_out[3][2]) == {
        (True, None): (11, 11), (False, None): (8, 8),
        (True, 1e-3): (16, 31), (False, 1e-3): (12, 24),
    }[recovered, timeout]


@pytest.mark.parametrize("timeout", [None, 1e-3])
def test_a_call_outside_a_batch_is_an_inline_leg_that_costs_no_more(timeout):
    """A get, a single-owner set, two gets of a dead MCD (the second
    ejects it) and one more (skipped): the caller resumes in the entry
    the outcome comes in, as the strand's in-frame call does.  Entries
    per op: a round trip 2 (3 with a deadline, against 6), a failure 1
    (2, against 5), a skip 0."""
    runs = []
    for cls in (MemcacheClient, WaitingClient):
        sim, mc, daemons = _bank(4, 1, cls, health=_policy(timeout))
        log = []

        def proc():
            yield from mc.set("k0", b"v", 1)
            for op, args in [("get", ("k0",)), ("set", ("k1", b"v", 1)), ("kill", ()),
                             ("get", ("k3",)), ("get", ("k3",)), ("get", ("k3",))]:
                if op == "kill":
                    daemons[mc.owners("k3")[0]].kill()
                    continue
                seq = sim._seq
                result = yield from getattr(mc, op)(*args)
                log.append((result, sim.now, sim._seq - seq))

        sim.process(proc())
        sim.run()
        runs.append((log, _state(sim, mc, daemons)))
    (out, state), (want_out, want_state) = runs
    assert [o[:2] for o in out] == [o[:2] for o in want_out]
    assert state[1:] == want_state[1:]
    assert state[3]["ejected_skips"] == 1 and state[3]["ejections"] == 1
    assert [o[2] for o in out] == {None: [2, 2, 1, 1, 0], 1e-3: [3, 3, 2, 2, 0]}[timeout]
    assert [o[2] for o in want_out] == {None: [2, 2, 1, 1, 0], 1e-3: [6, 6, 5, 5, 0]}[timeout]


def test_health_is_booked_when_a_leg_settles_not_when_it_is_booked():
    """Two batches in flight to one MCD.  The first's leg fails, but its
    error counts only when the failure arrives; the second batch, sent
    in between, still finds its server in the streak as it was, and its
    own failure is the one that ejects."""
    def kill(sim, mc, daemons):
        daemons[mc.owners("k0")[0]].kill()

    streams = [[("get_multi", ["k0"], 0.0)], [("get_multi", ["k0"], 1e-6)]]
    (out, state, _), (want_out, want_state, _) = _policy_twins(streams, setup=kill)
    assert out == want_out and state == want_state
    stats = state[3]
    assert (stats["errors"], stats["ejections"]) == (2, 1)
    assert "ejected_skips" not in stats


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
def _traced_warm_read():
    obs = Observability("t", trace=True)
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=4, mcd_memory=2 * MiB, imca=IMCaConfig()),
        obs=obs,
    )
    sim, client = tb.sim, tb.clients[0]
    read = {}

    def scenario():
        fd = yield from client.create("/warm")
        yield from client.write(fd, 0, 64 * KiB)
        yield from client.close(fd)
        fd = yield from client.open("/warm")
        yield from client.read(fd, 0, 64 * KiB)
        seq = sim._seq
        yield from client.read(fd, 16 * KiB, 16 * KiB)
        read["entries"], read["done"] = sim._seq - seq, sim.now

    sim.process(scenario())
    sim.run()
    tracer = obs.tracer
    spans = sorted(
        (s.name, s.tier, s.tid, s.start, s.end, s.child_time) for s in tracer.spans
    )
    return tracer, spans, read


def test_a_traced_warm_read_attributes_every_tier_as_the_waiting_legs_do(monkeypatch):
    tracer, spans, read = _traced_warm_read()
    monkeypatch.setattr(MemcacheClient, "_fork", _waiting_fork)
    want_tracer, want_spans, want_read = _traced_warm_read()
    assert read["done"] == want_read["done"]
    assert (read["entries"], want_read["entries"]) == (5, 9)
    # The same spans, closed at the same instants (in another order:
    # a landed leg's spans close when it lands, not when it wakes), on
    # the same tracks — a leg is a track of its own, named as a strand.
    assert spans == want_spans
    assert tracer.track_names() == want_tracer.track_names()
    assert tracer.tier_totals() == want_tracer.tier_totals()
    assert sum(s.name == "mc.batch" for s in tracer.spans) >= 4
    assert min(s.exclusive for s in tracer.spans) >= 0.0
