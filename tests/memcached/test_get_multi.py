"""``MemcachedEngine.get_multi`` is the engine's one lookup loop and
``get`` its batch of one.  The reference below is the scalar ``get`` as
it stood when ``get_multi`` was a loop over it; two engines fed the same
history must end every round indistinguishable."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.memcached import McError, MemcachedEngine
from repro.memcached.tenancy import TenantArbiter, TenantSpec
from repro.util import MiB


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def reference_get(e, key):
    """One key, one command: validate, count, probe, lazily expire,
    promote, report to the arbiter — in that order."""
    e._check_key(key)
    e.stats.inc("cmd_get")
    item = e._items.get(key)
    if item is not None and item.exptime != 0 and e.clock() >= item.exptime:
        e._unlink(item, "expire")
        e.stats.inc("expired")
        item = None
    if item is None:
        e.stats.inc("get_misses")
        if e.tenancy is not None:
            e.tenancy.record_miss(key)
        return None
    e._lru[item.slab.index].move_to_end(item.key)
    if item.tenant is not None:
        e.tenancy.on_touch(item, item.tenant)
    e.stats.inc("get_hits")
    if item.tenant is not None:
        e.tenancy.record_hit(item.tenant)
    return item


def reference_get_multi(e, keys):
    out = {}
    for key in keys:
        item = reference_get(e, key)
        if item is not None:
            out[key] = item
    return out


class RecordingArbiter(TenantArbiter):
    """Logs the read-path hooks in call order."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.log = []

    def on_touch(self, item, acct):
        self.log.append(("touch", item.key, acct.name))
        super().on_touch(item, acct)

    def record_hit(self, acct):
        self.log.append(("hit", acct.name))
        super().record_hit(acct)

    def record_miss(self, key):
        self.log.append(("miss", key))
        return super().record_miss(key)

    def on_unlink(self, item, acct, cause):
        self.log.append(("unlink", item.key, cause))
        super().on_unlink(item, acct, cause)


def make_engine(tenants):
    tenancy = None
    if tenants:
        specs = (TenantSpec("a", "/a/", 0.2), TenantSpec("b", "/b/"))
        tenancy = RecordingArbiter(specs, 2 * MiB, rebalance_ops=7)
    return MemcachedEngine(2 * MiB, FakeClock(), tenancy=tenancy)


def fingerprint(e):
    """Everything a get can change, in the orders it can change them."""
    return {
        "stats": e.stats.as_dict(),
        "items": [
            (i.key, i.value, i.nbytes, i.flags, i.exptime, i.cas, i.slab.index, i.seq)
            for i in e._items.values()
        ],
        "lru": {idx: list(lru) for idx, lru in e._lru.items()},
        "ttl_items": dict(e._ttl_items),
        "tenants": e.tenant_stats(),
        "tenant_lru": [
            {idx: list(lru) for idx, lru in acct.lru.items()}
            for acct in (e.tenancy.accounts if e.tenancy is not None else ())
        ],
        "hooks": list(e.tenancy.log) if e.tenancy is not None else [],
    }


def outcome(fn, e, keys):
    """``(hit keys in reply order with their cas, error text)``."""
    try:
        out = fn(e, keys)
    except McError as exc:
        return None, str(exc)
    return [(k, it.value, it.nbytes, it.flags, it.cas) for k, it in out.items()], None


#: A small universe: two tenants' namespaces and an unattributed one,
#: so batches repeat keys, hit, miss and find ghosts of evicted keys.
GOOD_KEYS = [f"/{ns}/f{i}:{off}" for ns in "abc" for i in range(3) for off in (0, 2048, "stat")]
BAD_KEYS = ["", "has space", "tab\there", "x" * 251, "é" * 126, "nl\n", "\x85next"]
ODD_KEYS = ["é" * 125, "ctl\x01", "x" * 250, "/a/ü:0"]

key_st = st.one_of(
    st.sampled_from(GOOD_KEYS),
    st.sampled_from(GOOD_KEYS),
    st.sampled_from(ODD_KEYS),
    st.sampled_from(BAD_KEYS),
)
set_st = st.tuples(
    st.sampled_from(GOOD_KEYS + ODD_KEYS),
    st.sampled_from([10, 100, 5_000, 300_000]),  # several slab classes; the last forces eviction
    st.sampled_from([0, 0, 1.0, 5.0]),
)
round_st = st.tuples(
    st.lists(set_st, max_size=6),
    st.sampled_from([0.0, 0.5, 1.0, 10.0]),
    st.lists(key_st, max_size=10),
    st.booleans(),
)


@pytest.mark.parametrize("tenants", [False, True])
@settings(max_examples=150, deadline=None)
@given(rounds=st.lists(round_st, min_size=1, max_size=5))
def test_get_multi_equals_a_run_of_scalar_gets(tenants, rounds):
    new, ref = make_engine(tenants), make_engine(tenants)
    for stores, dt, keys, one_by_one in rounds:
        for e in (new, ref):
            for key, nbytes, ttl in stores:
                e.set(key, ("v", key, nbytes), nbytes, flags=nbytes % 7, ttl=ttl)
            e.clock.t += dt
        if one_by_one:
            # ``get`` is the batch of one.
            got = outcome(lambda e, ks: {k: v for k in ks if (v := e.get(k)) is not None}, new, keys)
        else:
            got = outcome(MemcachedEngine.get_multi, new, keys)
        assert got == outcome(reference_get_multi, ref, keys)
        assert fingerprint(new) == fingerprint(ref)
        new.check_invariants()


def test_a_bad_key_mid_batch_books_exactly_the_keys_served_before_it():
    e = make_engine(tenants=False)
    e.set("hit", b"v", 1)
    with pytest.raises(McError):
        e.get_multi(["hit", "absent", "bad key", "hit"])
    assert e.stats.as_dict() == {
        "cmd_set": 1, "curr_items": 1, "total_items": 1, "bytes": 1,
        "cmd_get": 2, "get_hits": 1, "get_misses": 1,
    }
    # Nothing served, nothing booked — not even a zero.
    with pytest.raises(McError):
        MemcachedEngine(2 * MiB, FakeClock()).get_multi([""])
    fresh = MemcachedEngine(2 * MiB, FakeClock())
    assert fresh.get_multi([]) == {} and fresh.stats.as_dict() == {}


def test_get_multi_counts_a_repeated_key_once_per_occurrence():
    e = make_engine(tenants=False)
    e.set("k", b"v", 1)
    assert list(e.get_multi(["k", "nope", "k", "nope"])) == ["k"]
    assert (e.stats["cmd_get"], e.stats["get_hits"], e.stats["get_misses"]) == (4, 2, 2)


def test_get_multi_promotes_in_request_order():
    e = make_engine(tenants=False)
    for k in "abcd":
        e.set(k, b"v", 1)
    e.get_multi(["c", "a", "c"])
    (lru,) = e._lru.values()
    assert isinstance(lru, OrderedDict) and list(lru) == ["b", "d", "a", "c"]
