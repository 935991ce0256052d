"""``MemcacheClient.set_multi`` is the same items as scalar ``set``s in
order, one pipelined request per owner — and ``delete_multi``'s legs
run together.

Two banks fed the same history, one through ``set_multi`` and one
through scalar ``set``s, must end every round indistinguishable daemon
by daemon: the batch saves messages, it does not change what any MCD
stores, evicts or counts.

One level down, ``MemcachedEngine.set_multi`` / ``delete_multi`` (one
store or purge loop per request) must leave an engine exactly as the
same items stored or deleted one command at a time would: by the
engine's own ``set`` / ``delete`` (the batch of one), and by the scalar
store and delete the loop replaced, kept here as the reference.  The
loop sizes, places and allocates each item itself; the reference does
it with ``class_for``, ``_allocate`` → ``alloc_in`` and the item's
total size (``ITEM_OVERHEAD`` + key bytes + value bytes),
so every class, answer and engine and slab counter must agree, non-ASCII
keys and items on a class boundary included.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.memcached import McError, MemcacheClient, MemcachedDaemon, MemcachedEngine, PAGE_SIZE
from repro.memcached.daemon import command_cost
from repro.memcached.engine import ITEM_OVERHEAD, Item, McTooLarge, key_nbytes
from repro.memcached.slabs import SlabAllocator
from repro.memcached.tenancy import TenantArbiter, TenantSpec
from repro.net import IPOIB, Endpoint, Network, Node
from repro.sim import Simulator
from repro.util import MiB

from tests.memcached.test_owners import MODES, drive, make_bank

#: 2 pages per daemon: the 300,000-byte items (3 to a page) evict.
SMALL = 2 * MiB

item_st = st.tuples(
    st.integers(0, 11),  # which key of the bank's universe
    st.sampled_from([10, 100, 5_000, 300_000]),
    st.sampled_from([0, 7]),
    st.sampled_from([0, 0, 60.0]),
)
rounds_st = st.lists(st.lists(item_st, max_size=8), min_size=1, max_size=4)


def universe(client, mode):
    """Twelve keys: some with the mode's full owner list, some (inside
    a window) that did not move and have one owner."""
    width = {"single": 1, "replicas": 3}.get(mode, 2)
    keys = [f"key{i}" for i in range(400)]
    wide = [k for k in keys if len(client.owners(k)) == width][:8]
    return wide + [k for k in keys if k not in wide][:4]


def fingerprint(membership):
    """What a store can change on each daemon, in the orders it can."""
    out = {}
    for nid, m in membership.members.items():
        e = m.daemon.engine
        out[nid] = {
            "items": [
                (i.key, i.value, i.nbytes, i.flags, i.exptime > 0, i.cas, i.slab.index)
                for i in e._items.values()
            ],
            "lru": {idx: list(lru) for idx, lru in e._lru.items()},
            "stats": {n: e.stats.get(n) for n in ("cmd_set", "total_items", "evictions")},
        }
    return out


def booked(client):
    return {n: client.stats.get(n) for n in ("sets", "replica_writes", "window_writes")}


@pytest.mark.parametrize("one_dead", (False, True), ids=("all-alive", "one-dead"))
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=25, deadline=None)
@given(rounds=rounds_st)
def test_set_multi_is_the_scalar_sets_in_order(mode, one_dead, rounds):
    sim_a, batched, bank_a, _ = make_bank(mode, SMALL)
    sim_b, scalar, bank_b, _ = make_bank(mode, SMALL)
    keys = universe(batched, mode)
    dead = batched.owners(keys[0])[-1] if one_dead else None
    if one_dead:
        bank_a.daemon(dead).kill()
        bank_b.daemon(dead).kill()
    serial = 0
    for batch in rounds:
        items = []
        for which, nbytes, flags, ttl in batch:
            serial += 1
            items.append((keys[which], f"v{serial}", nbytes, flags, ttl))

        def one_by_one():
            stored = set()
            for key, value, nbytes, flags, ttl in items:
                if (yield from scalar.set(key, value, nbytes, flags, ttl)):
                    stored.add(key)
            return stored

        errors = batched.stats.get("errors"), scalar.stats.get("errors")
        assert drive(sim_a, batched.set_multi(items)) == drive(sim_b, one_by_one())
        assert fingerprint(bank_a) == fingerprint(bank_b)
        assert booked(batched) == booked(scalar)
        # A failed leg is one error, however many items rode it; the
        # scalar sets pay one per item the dead daemon owns.
        to_dead = sum(dead in scalar.owners(item[0]) for item in items)
        assert batched.stats.get("errors") - errors[0] == (1 if to_dead else 0)
        assert scalar.stats.get("errors") - errors[1] == to_dead


def small_bank(n, mem=PAGE_SIZE):
    sim = Simulator()
    net = Network(sim, IPOIB)
    daemons = [MemcachedDaemon(sim, net, Node(sim, f"mcd{i}"), mem) for i in range(n)]
    return sim, MemcacheClient(Endpoint(net, Node(sim, "client")), daemons), daemons


def test_duplicate_keys_keep_the_last_value():
    sim, client, daemons = small_bank(2)
    items = [("k", b"first", 5, 0, 0), ("other", b"o", 1, 0, 0), ("k", b"last", 4, 0, 0)]
    assert drive(sim, client.set_multi(items)) == {"k", "other"}
    owner = client.membership.daemon(client.owners("k")[0])
    assert owner.engine._items["k"].value == b"last"
    assert client.stats.get("sets") == 3
    assert sum(d.engine.stats.get("cmd_set") for d in daemons) == 3


def test_a_refused_item_fails_alone():
    """Too large for any slab class, or no page left for its class
    (NOT_STORED): the items around it are stored all the same."""
    sim, client, (daemon,) = small_bank(1)  # one page, taken by the first item's class
    items = [
        ("a", b"a", 10, 0, 0),
        ("too-large", b"x", PAGE_SIZE + 1, 0, 0),
        ("no-page", b"y", 300_000, 0, 0),
        ("b", b"b", 10, 0, 0),
    ]
    assert drive(sim, client.set_multi(items)) == {"a", "b"}
    assert set(daemon.engine._items) == {"a", "b"}
    assert client.stats.get("sets") == 4  # answered, though two were refused
    assert client.stats.get("errors") == 0


def test_a_bad_key_mid_batch_stores_and_books_the_items_before_it():
    sim, client, (daemon,) = small_bank(1)
    items = [("a", b"a", 1, 0, 0), ("has space", b"x", 1, 0, 0), ("b", b"b", 1, 0, 0)]
    # The malformed command fails the whole request, as it does a get.
    with pytest.raises(McError, match="whitespace"):
        drive(sim, client.set_multi(items))
    assert set(daemon.engine._items) == {"a"}
    assert daemon.engine.stats.get("cmd_set") == 1


def test_delete_multi_legs_run_together():
    """Four MCDs, one round trip of simulated time — not four — and a
    dead daemon costs its own copies and one ``errors``."""
    sim, client, daemons = small_bank(4)
    keys = [f"key{i}" for i in range(40)]
    assert {client.owners(k)[0] for k in keys} == {0, 1, 2, 3}
    on_one = [k for k in keys if client.owners(k) == [0]]

    def timed(gen):
        start = sim.now
        result = yield from gen
        return result, sim.now - start

    def store():
        stored = yield from client.set_multi([(k, b"v", 1, 0, 0) for k in keys])
        assert stored == set(keys)

    drive(sim, store())
    deleted, one_trip = drive(sim, timed(client.delete_multi(on_one)))
    assert deleted == len(on_one)
    drive(sim, store())
    deleted, four_legs = drive(sim, timed(client.delete_multi(keys)))
    assert deleted == len(keys)
    assert not any(d.engine._items for d in daemons)
    # Each daemon's share is about a quarter of the keys: together the
    # legs take well under two single-daemon trips, in sequence over 3.
    assert four_legs < 2 * one_trip

    drive(sim, store())
    daemons[3].kill()
    deleted = drive(sim, client.delete_multi(keys))
    assert deleted == sum(client.owners(k) != [3] for k in keys)
    assert not any(d.engine._items for d in daemons[:3])
    assert client.stats.get("errors") == 1


def test_an_empty_set_multi_sizes_to_zero():
    """Sized in one pass over the items: no items, no bytes, as an empty
    get_multi or delete_multi."""

    def request_size(op, payload):
        return command_cost(op, payload)[0]

    assert request_size("set_multi", []) == 0
    assert request_size("get_multi", []) == request_size("delete_multi", []) == 0
    # Σ key bytes (UTF-8) + 24 B framing per item + Σ value bytes.
    assert request_size("set_multi", [("/f:0", None, 2048, 0, 0)]) == 2076
    assert request_size("set_multi", [
        ("/f:0", None, 2048, 0, 0),
        ("/f:2048", None, 1000, 7, 60.0),
        ("/\u00e9:stat", None, 120, 0, 0),
    ]) == 3259


# -- the engine's store and purge loops -----------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def reference_set(e, key, value, nbytes, flags=0, ttl=0):
    """The scalar store the loop replaced: validate, count, pick the
    class, unlink a same-class overwrite, ``_allocate`` (the reclaim
    walk, the arbiter's pick or the LRU tail), unlink a
    different-class one, link."""
    e._check_key(key)
    if nbytes < 0:
        raise McError("negative value size")
    e.stats.inc("cmd_set")
    cls = e.slabs.class_for(ITEM_OVERHEAD + key_nbytes(key) + nbytes)
    if cls is None:
        raise McTooLarge(f"object too large for cache ({nbytes} bytes)")
    old = e._items.get(key)
    if old is not None and old.slab is cls:
        e._unlink(old, "overwrite")
    if not e._allocate(key, cls):
        return False
    old = e._items.get(key)
    if old is not None:
        e._unlink(old, "overwrite")
    e._cas += 1
    e._seq += 1
    exptime = e.clock() + ttl if ttl > 0 else 0.0
    item = Item(key, value, nbytes, flags, exptime, e._cas, cls, e._seq)
    e._items[key] = item
    e._lru.setdefault(cls.index, OrderedDict())[key] = item
    if exptime != 0:
        e._ttl_items[cls.index] = e._ttl_items.get(cls.index, 0) + 1
    if e.tenancy is not None:
        item.tenant = e.tenancy.on_insert(item)
    e.stats.inc("curr_items")
    e.stats.inc("total_items")
    e.stats.inc("bytes", nbytes)
    return True


def reference_delete(e, key):
    """The scalar delete the loop replaced."""
    e._check_key(key)
    e.stats.inc("cmd_delete")
    item = e._live_item(key)
    if item is None:
        return False
    e._unlink(item, "delete")
    return True


def one_by_one(store):
    """Per-item stores, a too-large item answering False."""
    def run(e, items):
        out = []
        for item in items:
            try:
                out.append(store(e, *item))
            except McTooLarge:
                out.append(False)
        return out
    return run


RUNNERS = {
    "batch": (MemcachedEngine.set_multi, MemcachedEngine.delete_multi),
    "scalar": (
        one_by_one(MemcachedEngine.set),
        lambda e, keys: [e.delete(k) for k in keys],
    ),
    "reference": (
        one_by_one(reference_set),
        lambda e, keys: [reference_delete(e, k) for k in keys],
    ),
}

#: Fifteen keys, five per tenant namespace, one of them not ASCII (its
#: UTF-8 bytes, not its characters, are what an item is charged): a
#: 30-item batch repeats some.
ENGINE_KEYS = [
    f"{ns}{k}" for ns in ("/a/", "/b/", "") for k in ("k0", "k1", "k2", "k3", "ké\u4e2d")
]
#: Item sizes by class: 3, 5 and ~10,000 to a page, so a page or two
#: evict; more classes than pages leaves a class with none (NOT_STORED).
CLASS_SIZES = [300_000, 180_000, 60]
#: Whole-item sizes (overhead and key bytes included) on the class
#: boundaries: a chunk size exactly, one byte over it (the next class),
#: a whole page, and a byte more than a page (no class).
BOUNDARY_TOTALS = sorted(
    {t for c in SlabAllocator(PAGE_SIZE).chunk_sizes for t in (c, c + 1)} | {PAGE_SIZE + 1}
)
BAD_KEY = "has space"


def value_bytes(key, size):
    """An item's value size: *size* itself, or for ``("total", t)`` the
    value bytes that make the whole item *t* bytes for this key."""
    if isinstance(size, tuple):
        return size[1] - ITEM_OVERHEAD - key_nbytes(key)
    return size


@st.composite
def engine_rounds(draw):
    """A memory limit and up to five rounds: a batch of ≤ 30 stores or
    deletes over 1–3 slab classes, some with a TTL that the round's
    clock advance can outlive, maybe a too-large item, maybe a bad key,
    maybe items sized onto a class boundary."""
    classes = draw(st.integers(1, 3))
    size_st = st.builds(
        lambda base, extra: base + extra,
        st.sampled_from(CLASS_SIZES[:classes]), st.integers(0, 40),
    )
    if draw(st.booleans()):
        # Plus the item overhead, too large for any class.
        size_st = st.one_of(size_st, st.just(PAGE_SIZE))
    if draw(st.booleans()):
        size_st = st.one_of(size_st, st.tuples(st.just("total"), st.sampled_from(BOUNDARY_TOTALS)))
    key_st = st.sampled_from(ENGINE_KEYS)
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        advance = draw(st.sampled_from([0.0, 2.0, 4.0]))
        if draw(st.integers(0, 2)):
            kind = "set"
            batch = draw(st.lists(
                st.tuples(key_st, size_st, st.sampled_from([0, 7]), st.sampled_from([0, 0, 3.0])),
                max_size=30,
            ))
        else:
            kind = "delete"
            batch = draw(st.lists(key_st, max_size=30))
        bad_at = None
        if batch and not draw(st.integers(0, 5)):
            bad_at = draw(st.integers(0, len(batch) - 1))
        rounds.append((kind, batch, bad_at, advance))
    return draw(st.sampled_from([1, 2])) * MiB, rounds


def make_engine(mem, arbiter):
    tenancy = None
    if arbiter:
        tenancy = TenantArbiter(
            (TenantSpec("a", "/a/", 0.25), TenantSpec("b", "/b/")), mem
        )
    clock = FakeClock()
    return MemcachedEngine(mem, clock, tenancy=tenancy), clock


def engine_state(e):
    """Everything a store or delete can change, in the orders it can."""
    return {
        "items": [
            (k, i.value, i.nbytes, i.flags, i.exptime, i.cas, i.seq, i.slab.index,
             i.tenant.name if i.tenant is not None else None)
            for k, i in e._items.items()
        ],
        "lru": {idx: list(lru) for idx, lru in e._lru.items()},
        "ttl_items": dict(e._ttl_items),
        "stats": e.stat_dict(),
        "slabs": [(c.index, c.pages, c.free_chunks, c.used_chunks) for c in e.slabs.classes],
        "slab_stats": e.slabs.stats.as_dict(),
        "tenants": e.tenant_stats(),
        "counters": (e._cas, e._seq),
    }


def outcome(run, e, batch):
    try:
        return ("answered", run(e, batch))
    except McError as exc:
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("arbiter", (False, True), ids=("no-arbiter", "arbiter"))
@settings(max_examples=120, deadline=None)
@given(case=engine_rounds())
def test_engine_set_multi_and_delete_multi_are_the_scalar_commands(arbiter, case):
    mem, rounds = case
    engines = {name: make_engine(mem, arbiter) for name in RUNNERS}
    serial = 0
    for kind, batch, bad_at, advance in rounds:
        if kind == "set":
            items = []
            for key, size, flags, ttl in batch:
                serial += 1
                items.append((key, f"v{serial}", value_bytes(key, size), flags, ttl))
            if bad_at is not None:
                items[bad_at] = (BAD_KEY, "bad", 1, 0, 0)
            batch = items
        elif bad_at is not None:
            batch = batch[:bad_at] + [BAD_KEY] + batch[bad_at + 1:]
        results = {}
        for name, (store, delete) in RUNNERS.items():
            e, clock = engines[name]
            clock.t += advance
            results[name] = outcome(store if kind == "set" else delete, e, batch)
            e.check_invariants()
        assert results["batch"] == results["scalar"] == results["reference"]
        assert (results["batch"][0] == "raised") == (bad_at is not None)
        states = {name: engine_state(e) for name, (e, _clock) in engines.items()}
        assert states["batch"] == states["scalar"] == states["reference"]


def test_a_bad_key_at_k_stores_and_deletes_the_k_items_before_it():
    e, _ = make_engine(2 * MiB, False)
    items = [("k0", "a", 10, 0, 0), ("k1", "b", 10, 0, 0), (BAD_KEY, "x", 1, 0, 0),
             ("k2", "c", 10, 0, 0)]
    with pytest.raises(McError, match="whitespace"):
        e.set_multi(items)
    assert list(e._items) == ["k0", "k1"]
    assert e.stats.get("cmd_set") == 2 and e.stats.get("total_items") == 2
    with pytest.raises(McError, match="whitespace"):
        e.delete_multi(["k0", "absent", BAD_KEY, "k1"])
    assert list(e._items) == ["k1"]
    assert e.stats.get("cmd_delete") == 2 and e.curr_items == 1
    e.check_invariants()


def test_set_is_the_batch_of_one_and_still_raises_too_large():
    e, _ = make_engine(2 * MiB, False)
    with pytest.raises(McTooLarge):
        e.set("big", "x", PAGE_SIZE)
    assert e.stats.get("cmd_set") == 1  # counted, as a storage command
    assert e.set_multi([("big", "x", PAGE_SIZE, 0, 0), ("k", "v", 1, 0, 0)]) == [False, True]
    assert e.stats.get("cmd_set") == 3


@pytest.mark.parametrize("key", ("plain", "wideé中"), ids=("ascii", "utf8"))
def test_the_store_loop_places_every_boundary_size_as_class_for_does(key):
    """Each boundary total on a fresh one-page engine, stored by the
    loop and by the reference: the same answer, the class that
    ``class_for`` picks for the item's total size, and the same counters."""
    for total in BOUNDARY_TOTALS:
        nbytes = value_bytes(key, ("total", total))
        items = [(key, "v", nbytes, 0, 0), (key, "w", nbytes, 0, 0)]
        batch, _ = make_engine(PAGE_SIZE, False)
        ref, _ = make_engine(PAGE_SIZE, False)
        answer = batch.set_multi(items)
        assert answer == one_by_one(reference_set)(ref, items)
        cls = ref.slabs.class_for(ITEM_OVERHEAD + key_nbytes(key) + nbytes)
        assert answer == [cls is not None] * 2, total
        if cls is not None:
            assert batch._items[key].slab.index == cls.index
            smaller = ref.slabs.classes[cls.index - 1].chunk_size if cls.index else 0
            assert smaller < total <= cls.chunk_size
        assert engine_state(batch) == engine_state(ref), total
        batch.check_invariants()
