"""Unit tests for stripe arithmetic and the lock manager."""

import pytest
from hypothesis import given, strategies as st

from repro.lustre.ldlm import LockManager, PR, PW, compatible
from repro.lustre.striping import StripeLayout
from repro.sim import Simulator
from repro.util import KiB, MiB


# -- striping -----------------------------------------------------------------
def test_locate_round_robin():
    lay = StripeLayout(count=4, stripe_size=1 * MiB)
    assert lay.locate(0) == (0, 0)
    assert lay.locate(1 * MiB) == (1, 0)
    assert lay.locate(4 * MiB) == (0, 1 * MiB)
    assert lay.locate(5 * MiB + 100) == (1, 1 * MiB + 100)


def test_split_covers_range_exactly():
    lay = StripeLayout(count=4, stripe_size=64 * KiB)
    runs = lay.split(100, 300 * KiB)
    total = sum(r[3] for r in runs)
    assert total == 300 * KiB
    assert runs[0][2] == 100  # first file offset
    # file offsets are contiguous
    pos = 100
    for _, _, file_off, length in runs:
        assert file_off == pos
        pos += length


def test_split_single_stripe_no_fragmentation():
    lay = StripeLayout(count=1, stripe_size=1 * MiB)
    runs = lay.split(0, 10 * MiB)
    assert len(runs) == 1
    assert runs[0] == (0, 0, 0, 10 * MiB)


def test_last_ost():
    lay = StripeLayout(count=4, stripe_size=1 * MiB)
    assert lay.last_ost(1) == 0
    assert lay.last_ost(1 * MiB) == 0
    assert lay.last_ost(1 * MiB + 1) == 1
    assert lay.last_ost(0) == 0


def test_layout_validation():
    with pytest.raises(ValueError):
        StripeLayout(count=0)
    with pytest.raises(ValueError):
        StripeLayout(count=1, stripe_size=100)


@given(st.integers(1, 8), st.integers(0, 10 * MiB), st.integers(1, 4 * MiB))
def test_split_property_exact_cover(count, offset, size):
    lay = StripeLayout(count=count, stripe_size=256 * KiB)
    runs = lay.split(offset, size)
    pos = offset
    for ost, obj_off, file_off, length in runs:
        assert file_off == pos
        assert 0 <= ost < count
        # locate() must agree with the run mapping at its start.
        assert lay.locate(file_off) == (ost, obj_off)
        pos += length
    assert pos == offset + size


# -- lock manager -----------------------------------------------------------------
def run_gen(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def test_compatibility_matrix():
    assert compatible(PR, PR)
    assert not compatible(PR, PW)
    assert not compatible(PW, PR)
    assert not compatible(PW, PW)


def test_shared_readers_coexist():
    lm = LockManager(Simulator())
    run_gen(lm.enqueue("a", "/f", PR))
    run_gen(lm.enqueue("b", "/f", PR))
    assert lm.holds("a", "/f", PR)
    assert lm.holds("b", "/f", PR)
    assert lm._files["/f"].granted.keys() == {"a", "b"}
    assert lm.stats.get("revocations") == 0


def test_writer_revokes_readers():
    lm = LockManager(Simulator())
    revoked = []

    def cb(holder, path):
        revoked.append((holder, path))
        return
        yield  # pragma: no cover

    lm.set_revoke_callback(cb)
    run_gen(lm.enqueue("r1", "/f", PR))
    run_gen(lm.enqueue("r2", "/f", PR))
    run_gen(lm.enqueue("w", "/f", PW))
    assert sorted(h for h, _ in revoked) == ["r1", "r2"]
    assert lm.holds("w", "/f", PW)
    assert not lm.holds("r1", "/f", PR)


def test_reader_revokes_writer():
    lm = LockManager(Simulator())
    revoked = []

    def cb(holder, path):
        revoked.append(holder)
        return
        yield  # pragma: no cover

    lm.set_revoke_callback(cb)
    run_gen(lm.enqueue("w", "/f", PW))
    run_gen(lm.enqueue("r", "/f", PR))
    assert revoked == ["w"]


def test_pw_implies_pr():
    lm = LockManager(Simulator())
    run_gen(lm.enqueue("a", "/f", PW))
    assert lm.holds("a", "/f", PR)
    # Re-enqueue of PR by the same holder is a no-op.
    run_gen(lm.enqueue("a", "/f", PR))
    assert lm.holds("a", "/f", PW)


def test_upgrade_pr_to_pw_revokes_peers():
    lm = LockManager(Simulator())
    revoked = []

    def cb(holder, path):
        revoked.append(holder)
        return
        yield  # pragma: no cover

    lm.set_revoke_callback(cb)
    run_gen(lm.enqueue("a", "/f", PR))
    run_gen(lm.enqueue("b", "/f", PR))
    run_gen(lm.enqueue("a", "/f", PW))
    assert revoked == ["b"]
    assert lm.holds("a", "/f", PW)


def test_release_and_release_all():
    lm = LockManager(Simulator())
    run_gen(lm.enqueue("a", "/f", PR))
    run_gen(lm.enqueue("a", "/g", PR))
    lm.release("a", "/f")
    assert not lm.holds("a", "/f", PR)
    assert lm.holds("a", "/g", PR)
    assert lm.release_all("a") == 1
    assert not lm.holds("a", "/g", PR)


def test_bad_mode_rejected():
    lm = LockManager(Simulator())
    with pytest.raises(ValueError):
        run_gen(lm.enqueue("a", "/f", "EX"))
