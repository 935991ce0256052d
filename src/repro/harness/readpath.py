"""The readpath experiment: partial fills, readahead and the hot cache.

The paper's miss path is all-or-nothing: one uncached block in a
multi-get forwards the *whole* read to the server ("the cost of a miss
is more expensive than in the original GlusterFS", §5.4).  This
experiment quantifies the three opt-in read-path optimisations that cut
that cost (``IMCaConfig.partial_fills`` / ``readahead_blocks`` /
``hot_cache_bytes``) and proves they never change returned bytes:

1. **Partial-fill sweep** (the figure): per partial-hit ratio *h*, a
   client re-reads files whose block suffix was evicted from the MCDs.
   With fills on, only the missing range is read from the server.  Mean
   *and* p99 read latency must strictly improve versus fills-off at
   every h >= 0.25, and both modes must return byte-identical data.
2. **Readahead depth sweep**: a client streams cold files sequentially
   per depth K.  Every K > 0 must score prefetch hits, and the best
   depth must beat K=0 on mean read latency.
3. **Hot-cache size sweep**: a client re-reads a small open working set
   per budget.  The hot tier must serve repeat reads (zero simulated
   round trips), beat the hot-off mean, and a write must invalidate
   (the next read returns the fresh bytes, not the hot copy).
4. **Mid-sweep MCD kill**: with all three features on, one MCD dies
   half-way through the rounds.  The full op stream's digest must equal
   the digest of the identical run on a cache-off testbed (num_mcds=0).

Passes 1-3 also verify every read against the analytically known
payload, so "identical" never degenerates into "identically wrong".
"""

from __future__ import annotations

from repro.core.config import IMCaConfig
from repro.core.keys import data_key, stat_key
from repro.faults.schedule import FaultSchedule
from repro.harness.experiment import ExperimentResult, register
from repro.harness.parallel import pmap
from repro.harness.params import params_for
from repro.harness.scenario import (
    Probe, create_files, mean, open_files, p99, payload, testbed,
)
from repro.obs.context import make_observability
from repro.obs.tail import render_why_slow, tail_summary
from repro.workloads.base import drive, run_clients


def _working_set(tb, kind: str, nfiles: int, size: int, *, cold: bool = False):
    """Untimed setup shared by every pass: client 0 writes *nfiles*
    files of *size* known bytes, closes and reopens them, then warms the
    bank (stat + whole-file read) — or, with *cold*, drops everything
    the write read-back pushed before reopening (the server re-pushes
    the stat on open).  Returns ``(paths, contents, {path: fd})``."""
    paths = [f"/readpath/{kind}/f{j}" for j in range(nfiles)]
    contents = [payload(size, (67 * j + 13) % 251) for j in range(nfiles)]
    client = tb.clients[0]

    def setup():
        yield from create_files(
            tb, [(0, path, data) for path, data in zip(paths, contents)], close=True
        )
        if cold:
            for mcd in tb.mcds:
                mcd.engine.flush_all()
        [fds] = yield from open_files(tb, paths)
        if not cold:
            for path in paths:
                yield from client.stat(path)
                yield from client.read(fds[path], 0, size)
        return fds

    return paths, contents, drive(tb.sim, setup())


def _evict_blocks(tb, path: str, offsets: list[int]) -> None:
    """Drop data blocks straight out of every MCD engine (untimed)."""
    for off in offsets:
        key = data_key(path, off)
        if key is None:
            continue
        for mcd in tb.mcds:
            mcd.engine.delete(key)


# --------------------------------------------------------------------------- #
# Pass 1: partial-fill sweep over the partial-hit ratio
# --------------------------------------------------------------------------- #
def _pf_job(p: dict, hit_ratio: float, fills: bool, obs=None) -> dict:
    """Evict a block suffix per round; read the whole file back."""
    imca = IMCaConfig(partial_fills=fills)
    tb = testbed(p, clients=1, imca=imca, obs=obs)
    bs = imca.block_size
    nblocks = p["pf_blocks"]
    paths, contents, fds = _working_set(tb, "pf", p["pf_files"], nblocks * bs)
    # Evict the *suffix* so the missing run is contiguous: one fill read
    # per round, never a checkerboard.
    n_miss = nblocks - round(hit_ratio * nblocks)
    n_miss = min(max(n_miss, 1), nblocks - 1)
    evict = [(nblocks - n_miss + i) * bs for i in range(n_miss)]
    probe = Probe(tb)

    def body(client, rank, barrier):
        yield barrier.wait()
        for _ in range(p["pf_rounds"]):
            for path, expected in zip(paths, contents):
                _evict_blocks(tb, path, evict)
                yield from probe.read(rank, fds[path], 0, expected)

    run_clients(tb.sim, tb.clients, body)
    cm = tb.cm_stats()
    return {
        "mean": mean(probe.read_lat),
        "p99": p99(probe.read_lat),
        "digest": probe.digest(0),
        "mismatches": probe.mismatches,
        "partial_hits": cm.get("read_partial_hits", 0),
        "fill_reads": cm.get("fill_reads", 0),
        "fill_blocks": cm.get("fill_blocks", 0),
        "fill_fallbacks": cm.get("fill_fallbacks", 0),
        "read_misses": cm.get("read_misses", 0),
    }


# --------------------------------------------------------------------------- #
# Pass 2: sequential readahead depth sweep
# --------------------------------------------------------------------------- #
def _ra_job(p: dict, depth: int, obs=None) -> dict:
    """Stream cold files sequentially, one block per read."""
    imca = IMCaConfig(readahead_blocks=depth)
    tb = testbed(p, clients=1, imca=imca, obs=obs)
    bs = imca.block_size
    size = p["ra_blocks"] * bs
    paths, contents, fds = _working_set(tb, "ra", p["ra_files"], size, cold=True)
    probe = Probe(tb)

    def body(client, rank, barrier):
        yield barrier.wait()
        for path, expected in zip(paths, contents):
            for off in range(0, size, bs):
                yield from probe.read(rank, fds[path], off, expected[off : off + bs])

    run_clients(tb.sim, tb.clients, body)
    cm = tb.cm_stats()
    reads = len(probe.read_lat)
    hits = cm.get("prefetch_hits", 0)
    return {
        "mean": mean(probe.read_lat),
        "p99": p99(probe.read_lat),
        "mismatches": probe.mismatches,
        "prefetch_issued": cm.get("prefetch_issued", 0),
        "prefetch_blocks": cm.get("prefetch_blocks", 0),
        "prefetch_hits": hits,
        "prefetch_hit_rate": hits / reads if reads else 0.0,
        "read_hits": cm.get("read_hits", 0),
        "read_misses": cm.get("read_misses", 0),
    }


# --------------------------------------------------------------------------- #
# Pass 3: hot-cache size sweep
# --------------------------------------------------------------------------- #
def _hc_job(p: dict, budget: int, obs=None) -> dict:
    """Re-read a small open working set; repeats should go hot."""
    imca = IMCaConfig(hot_cache_bytes=budget)
    tb = testbed(p, clients=1, imca=imca, obs=obs)
    sim = tb.sim
    bs = imca.block_size
    nblocks = p["hc_blocks"]
    size = nblocks * bs
    # The warm pass fills the MCDs and (when on) the hot tier.
    paths, contents, fds = _working_set(tb, "hc", p["hc_files"], size)
    probe = Probe(tb)

    def body(client, rank, barrier):
        yield barrier.wait()
        for r_i in range(p["hc_rounds"]):
            for j, (path, expected) in enumerate(zip(paths, contents)):
                off = ((r_i + j) % nblocks) * bs
                yield from probe.stat(rank, path, size)
                yield from probe.read(rank, fds[path], off, expected[off : off + bs])

    run_clients(sim, tb.clients, body)

    # Staleness check: overwrite block 0 of file 0, then read it back —
    # the hot copy must be invalidated, not served.
    def overwrite():
        client = tb.clients[0]
        fresh = payload(bs, 101)
        yield from client.write(fds[paths[0]], 0, bs, fresh)
        r = yield from client.read(fds[paths[0]], 0, bs)
        return r.data == fresh

    fresh_after_write = drive(sim, overwrite())
    cm = tb.cm_stats()
    return {
        "mean": mean(probe.read_lat),
        "p99": p99(probe.read_lat),
        "stat_mean": mean(probe.stat_lat),
        "mismatches": probe.mismatches,
        "fresh_after_write": bool(fresh_after_write),
        "hot_data_hits": cm.get("hot_data_hits", 0),
        "hot_stat_hits": cm.get("hot_stat_hits", 0),
        "hot_evictions": cm.get("hot_evictions", 0),
        "hot_invalidated": cm.get("hot_invalidated", 0),
        "hot_info": tb.cmcaches[0].hot_info(),
    }


# --------------------------------------------------------------------------- #
# Pass 4: everything on + a mid-sweep MCD kill, vs the cache-off digest
# --------------------------------------------------------------------------- #
def _ft_job(p: dict, features: bool, kill: bool, obs=None) -> dict:
    """Run the combined workload; return the digest of every read.

    Pass an :class:`~repro.obs.context.Observability` bundle to record
    every client op in its op log (the caller keeps the bundle and
    inspects the records afterwards); ``None`` runs uninstrumented.
    """
    if features:
        imca = IMCaConfig(
            partial_fills=True,
            readahead_blocks=p["ft_readahead"],
            hot_cache_bytes=p["ft_hot_bytes"],
        )
        tb = testbed(p, clients=1, imca=imca, resilient=True, obs=obs)
    else:
        imca = IMCaConfig()
        tb = testbed(p, clients=1, mcds=0, obs=obs)
    sim = tb.sim
    bs = imca.block_size
    nblocks = p["ft_blocks"]
    size = nblocks * bs
    paths, contents, fds = _working_set(tb, "ft", p["ft_files"], size)
    n_miss = max(1, nblocks // 2)
    evict = [(nblocks - n_miss + i) * bs for i in range(n_miss)]
    probe = Probe(tb)

    def rounds_body(first: int, last: int):
        def body(client, rank, barrier):
            yield barrier.wait()
            for _ in range(first, last):
                for path, expected in zip(paths, contents):
                    if tb.mcds:
                        _evict_blocks(tb, path, evict)
                    # Partial-hit full read, then a sequential record
                    # stream (arms the readahead detector, repeats go
                    # hot).
                    yield from probe.read(rank, fds[path], 0, expected)
                    for off in range(0, size, bs):
                        yield from probe.read(
                            rank, fds[path], off, expected[off : off + bs]
                        )

        return body

    total = p["ft_rounds"]
    half = max(1, total // 2)
    run_clients(sim, tb.clients, rounds_body(0, half))
    if kill and tb.mcds:
        # Kill the daemon that primaries the most working-set keys so
        # the loss is guaranteed to matter (an idle victim proves
        # nothing).
        mc = tb.cmcaches[0].mc
        owned = [0] * len(tb.mcds)
        for path in paths:
            owned[mc.owners(stat_key(path))[0]] += 1
            for off in range(0, size, bs):
                owned[mc.owners(data_key(path, off))[0]] += 1
        victim = owned.index(max(owned))
        sched = FaultSchedule()
        sched.mcd_crash(0.0, mcd=victim, down_for=1e9)  # never recovers
        tb.arm_faults(sched.shifted(sim.now))
    run_clients(sim, tb.clients, rounds_body(half, total))
    mc_stats = tb.mcclient_stats()
    return {
        "digest": probe.digest(0),
        "mismatches": probe.mismatches,
        "errors": probe.errors,
        "ejections": mc_stats.get("ejections", 0),
        "ejected_skips": mc_stats.get("ejected_skips", 0),
    }


# --------------------------------------------------------------------------- #
# The experiment
# --------------------------------------------------------------------------- #
@register(
    "readpath",
    "§4.3/§5.4 extension",
    "Read-path optimisations: partial fills, readahead, hot cache",
    "Cut the all-or-nothing miss path: fill only the missing block "
    "ranges on a partial hit, prefetch ahead of sequential streams, and "
    "serve repeat reads of open files from a client-side hot LRU — all "
    "byte-identical to the cache-off baseline, even with an MCD killed "
    "mid-sweep.",
)
def run_readpath(scale: str = "default") -> ExperimentResult:
    p = params_for("readpath", scale)
    ratios = p["hit_ratios"]
    result = ExperimentResult(
        "readpath", scale, x_name="partial-hit ratio", x_values=ratios
    )

    # ---- pass 1: partial-fill sweep --------------------------------------
    grid = [(h, fills) for h in ratios for fills in (False, True)]
    rows = dict(zip(grid, pmap(_pf_job, [(p, h, fills) for h, fills in grid])))
    for fills in (False, True):
        label = "fills on" if fills else "fills off"
        result.series[f"read mean ({label})"] = [rows[(h, fills)]["mean"] for h in ratios]
        result.series[f"read p99 ({label})"] = [rows[(h, fills)]["p99"] for h in ratios]
    improves = all(
        rows[(h, True)]["mean"] < rows[(h, False)]["mean"]
        and rows[(h, True)]["p99"] < rows[(h, False)]["p99"]
        for h in ratios
        if h >= 0.25
    )
    result.check(
        "partial fills strictly improve mean and p99 read latency at "
        "every partial-hit ratio >= 0.25",
        improves,
        "; ".join(
            f"h={h}: mean {rows[(h, False)]['mean']:.3g}s -> "
            f"{rows[(h, True)]['mean']:.3g}s"
            for h in ratios
        ),
    )
    result.check(
        "fills-on returns byte-identical data to fills-off (and to the "
        "written payloads)",
        all(
            rows[(h, True)]["digest"] == rows[(h, False)]["digest"]
            and rows[(h, True)]["mismatches"] == 0
            and rows[(h, False)]["mismatches"] == 0
            for h in ratios
        ),
        f"{len(ratios)} ratio points compared",
    )
    filled = all(
        rows[(h, True)]["partial_hits"] > 0 and rows[(h, True)]["fill_reads"] > 0
        for h in ratios
    )
    result.check(
        "every fills-on point serves partial hits through the fill path "
        "(read_partial_hits and fill_reads surface in obs)",
        filled,
        "; ".join(
            f"h={h}: {rows[(h, True)]['partial_hits']} partial hits, "
            f"{rows[(h, True)]['fill_reads']} fill reads, "
            f"{rows[(h, True)]['fill_fallbacks']} fallbacks"
            for h in ratios
        ),
    )
    result.extras["partial_fill"] = {
        str(h): {m: rows[(h, True)][m] for m in
                 ("partial_hits", "fill_reads", "fill_blocks", "fill_fallbacks")}
        for h in ratios
    }

    # ---- pass 2: readahead depth sweep -----------------------------------
    depths = p["ra_depths"]
    ra_rows = dict(zip(depths, pmap(_ra_job, [(p, k) for k in depths])))
    on_depths = [k for k in depths if k > 0]
    best = min(on_depths, key=lambda k: ra_rows[k]["mean"])
    result.check(
        "sequential streams score prefetch hits at every readahead "
        "depth > 0",
        all(ra_rows[k]["prefetch_hits"] > 0 for k in on_depths),
        "; ".join(
            f"K={k}: {ra_rows[k]['prefetch_hits']} hits "
            f"({ra_rows[k]['prefetch_hit_rate']:.0%} of reads)"
            for k in on_depths
        ),
    )
    result.check(
        f"readahead depth {best} beats depth 0 on mean read latency, "
        "byte-identically",
        ra_rows[best]["mean"] < ra_rows[0]["mean"]
        and all(ra_rows[k]["mismatches"] == 0 for k in depths),
        f"K=0 {ra_rows[0]['mean']:.3g}s -> K={best} "
        f"{ra_rows[best]['mean']:.3g}s",
    )
    result.extras["readahead"] = {
        str(k): {m: ra_rows[k][m] for m in
                 ("mean", "p99", "prefetch_issued", "prefetch_blocks",
                  "prefetch_hits", "prefetch_hit_rate", "read_hits",
                  "read_misses")}
        for k in depths
    }

    # ---- pass 3: hot-cache size sweep ------------------------------------
    sizes = p["hot_sizes"]
    hc_rows = dict(zip(sizes, pmap(_hc_job, [(p, s) for s in sizes])))
    big = max(sizes)
    result.check(
        "the hot tier serves repeat reads of open files and beats the "
        "hot-off mean read latency",
        hc_rows[big]["hot_data_hits"] > 0
        and hc_rows[big]["hot_stat_hits"] > 0
        and hc_rows[big]["mean"] < hc_rows[0]["mean"]
        and all(hc_rows[s]["mismatches"] == 0 for s in sizes),
        f"off {hc_rows[0]['mean']:.3g}s -> {big} B "
        f"{hc_rows[big]['mean']:.3g}s "
        f"({hc_rows[big]['hot_data_hits']} hot data hits)",
    )
    result.check(
        "a write invalidates the hot copies: the next read returns the "
        "fresh bytes at every budget",
        all(hc_rows[s]["fresh_after_write"] for s in sizes),
        f"budgets {sizes}",
    )
    result.extras["hot_cache"] = {
        str(s): {m: hc_rows[s][m] for m in
                 ("mean", "stat_mean", "hot_data_hits", "hot_stat_hits",
                  "hot_evictions", "hot_invalidated", "hot_info")}
        for s in sizes
    }

    # ---- pass 4: mid-sweep MCD kill vs cache-off digest ------------------
    ft = pmap(_ft_job, [(p, True, True), (p, False, False)])
    ft_on, ft_off = ft
    result.check(
        "with all three features on and an MCD killed mid-sweep, the op "
        "stream stays byte-identical to the cache-off baseline",
        ft_on["digest"] == ft_off["digest"]
        and ft_on["mismatches"] == 0
        and ft_on["errors"] == 0,
        f"mismatches={ft_on['mismatches']} errors={ft_on['errors']} "
        f"digest match={ft_on['digest'] == ft_off['digest']}",
    )
    result.extras["fault"] = {"on": ft_on, "off": ft_off}

    # ---- pass 5: the kill run again, with per-op records on --------------
    # Re-run the features-on kill workload in-process with the op log
    # enabled: the lifecycle records must show every optimisation as an
    # op outcome (partial-fill tags, readahead credits, hot-tier block
    # hits) and must make the failure visible — post-kill ops carry the
    # degraded-MCD set, and the dead daemon's trips surface either as
    # on-op counts (ejections/skips/timeouts hit while a client op is
    # open) or as orphan annotations from detached prefetch and
    # fire-and-forget push processes off the client's critical path.
    # At small scales the hot tier absorbs so much that *every* trip is
    # off-path; at larger working sets some land on ops — both are
    # correct attribution, neither ever corrupts another op's record.
    # In-process means the records are identical under any ``--jobs N``.
    obs = make_observability("readpath", trace=True, oplog=True)
    ft_inst = _ft_job(p, True, True, obs)
    assert obs.oplog is not None
    recs = list(obs.oplog.records)
    all_tags = {t for r in recs for t in r.tags}
    total_counts: dict[str, int] = {}
    for r in recs:
        for name, by in r.counts.items():
            total_counts[name] = total_counts.get(name, 0) + by
    degraded_ops = sum(1 for r in recs if r.degraded)
    on_op_trips = (
        total_counts.get("mcd_ejections", 0)
        + total_counts.get("ejected_skips", 0)
        + total_counts.get("rpc_timeouts", 0)
    )
    result.check(
        "op records attribute the optimisations and the kill: "
        "partial-fill tags, readahead credits and hot-tier hits "
        "surface as outcomes; the dead daemon is ejected, post-kill "
        "ops carry the degraded-MCD set, and its trips are attributed "
        "on-op or to off-critical-path background work",
        "read-partial-fill" in all_tags
        and total_counts.get("readahead_credits", 0) > 0
        and total_counts.get("hot_block_hits", 0) > 0
        and degraded_ops > 0
        and ft_inst["ejections"] > 0
        and (on_op_trips > 0 or obs.oplog.orphan_annotations > 0)
        and ft_inst["mismatches"] == 0
        and ft_inst["errors"] == 0,
        f"{len(recs)} records; tags={sorted(all_tags)}; "
        f"counts={dict(sorted(total_counts.items()))}; "
        f"{degraded_ops} ops saw a degraded MCD; "
        f"{ft_inst['ejections']} ejections, {on_op_trips} on-op trips, "
        f"{obs.oplog.orphan_annotations} off-path annotations",
    )
    result.extras["tail"] = tail_summary(obs.oplog)
    result.extras["why_slow"] = render_why_slow(result.extras["tail"])

    result.notes.append(
        "All three optimisations are opt-in (IMCaConfig.partial_fills / "
        "readahead_blocks / hot_cache_bytes); at their defaults every "
        "client path is the legacy all-or-nothing code, byte-identical "
        "to main."
    )
    return result
