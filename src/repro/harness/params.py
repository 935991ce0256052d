"""Per-scale experiment parameters.

``smoke`` keeps each experiment in a few seconds of wall time (CI and
pytest-benchmark), ``default`` produces clean figure shapes in tens of
seconds, and ``paper`` pushes towards the paper's sizes (long runs;
file counts remain scaled — 64 simulated clients each statting 262144
files is billions of heap events in pure Python, and the contention
shapes do not depend on the absolute file count).

Working-set-sensitive parameters (server memory in Fig 1, MCD memory in
Fig 7/8) are scaled *together* with file sizes so cliffs and capacity
misses appear at the same relative positions as in the paper.
"""

from __future__ import annotations

from repro.util.units import GiB, KiB, MiB

PARAMS: dict[str, dict[str, dict]] = {
    # ---- Fig 1: NFS motivation --------------------------------------------
    "fig1": {
        "smoke": dict(
            clients=[1, 2, 4],
            transports=["ib-rdma", "ipoib", "gige"],
            memories={"smallmem": 24 * MiB, "bigmem": 48 * MiB},
            file_size=8 * MiB,
            record_size=256 * KiB,
            raid_disks=2,
        ),
        "default": dict(
            clients=[1, 2, 4, 8],
            transports=["ib-rdma", "ipoib", "gige"],
            memories={"smallmem": 48 * MiB, "bigmem": 96 * MiB},
            file_size=16 * MiB,
            record_size=256 * KiB,
            raid_disks=2,
        ),
        "paper": dict(
            clients=[1, 2, 4, 8, 16],
            transports=["ib-rdma", "ipoib", "gige"],
            memories={"smallmem": 256 * MiB, "bigmem": 512 * MiB},
            file_size=64 * MiB,
            record_size=1 * MiB,
            raid_disks=2,
        ),
    },
    # ---- Fig 5: stat scaling ------------------------------------------------
    # stat_cut_min is the bar for "1 MCD cuts stat time": the cut grows
    # with how hard the clients queue at the server, so it is per scale.
    # out_of_reach: claims whose precondition these sizes cannot meet;
    # the runner notes the reason instead of emitting the check.
    "fig5": {
        "smoke": dict(
            clients=[1, 4, 8],
            files=64,
            mcd_counts=[1, 2],
            lustre_ds=4,
            stat_cut_min=30,
            out_of_reach={
                "scaling orderings": "8 clients x 64 files never queue at "
                "the server or at one MCD, so stat time is flat in clients "
                "and a second MCD changes nothing",
            },
        ),
        "default": dict(
            clients=[1, 2, 4, 8, 16, 32, 64],
            files=384,
            mcd_counts=[1, 2, 4, 6],
            lustre_ds=4,
            stat_cut_min=50,
        ),
        "paper": dict(
            clients=[1, 2, 4, 8, 16, 32, 64],
            files=4096,
            mcd_counts=[1, 2, 4, 6],
            lustre_ds=4,
            stat_cut_min=50,
        ),
    },
    # ---- Fig 6: single-client latency --------------------------------------------
    "fig6": {
        "smoke": dict(
            sizes_small=[1, 64, 2 * KiB],
            sizes_large=[16 * KiB, 128 * KiB],
            records=16,
            block_sizes=[256, 2 * KiB, 8 * KiB],
            write_sizes=[1, 256, 2 * KiB, 16 * KiB],
        ),
        "default": dict(
            sizes_small=[1, 4, 16, 64, 256, 1 * KiB, 4 * KiB],
            sizes_large=[8 * KiB, 32 * KiB, 128 * KiB, 512 * KiB, 1 * MiB],
            records=96,
            block_sizes=[256, 2 * KiB, 8 * KiB],
            write_sizes=[1, 16, 256, 2 * KiB, 16 * KiB, 128 * KiB],
        ),
        "paper": dict(
            sizes_small=[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1 * KiB, 2 * KiB, 4 * KiB],
            sizes_large=[8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB],
            records=512,
            block_sizes=[256, 2 * KiB, 8 * KiB],
            write_sizes=[1, 16, 256, 2 * KiB, 16 * KiB, 128 * KiB, 1 * MiB],
        ),
    },
    # ---- Fig 7: 32-client latency, varying MCDs ---------------------------------------
    # read_cut_min: the bar for "max MCDs cut 1-byte latency", per scale
    # for the same reason as fig5's stat_cut_min.
    "fig7": {
        "smoke": dict(
            num_clients=8,
            sizes=[1, 256, 8 * KiB],
            records=12,
            mcd_counts=[1, 4],
            mcd_memory=16 * MiB,
            lustre_ds=4,
            read_cut_min=30,
        ),
        "default": dict(
            num_clients=16,
            sizes=[1, 16, 256, 2 * KiB, 8 * KiB, 64 * KiB],
            records=48,
            mcd_counts=[1, 2, 4],
            mcd_memory=64 * MiB,
            lustre_ds=4,
            read_cut_min=50,
        ),
        "paper": dict(
            num_clients=32,
            sizes=[1, 4, 16, 64, 256, 1 * KiB, 2 * KiB, 8 * KiB, 16 * KiB, 64 * KiB],
            records=256,
            mcd_counts=[1, 2, 4],
            mcd_memory=256 * MiB,
            lustre_ds=4,
            read_cut_min=50,
        ),
    },
    # ---- Fig 8: client scaling at 1 MCD --------------------------------------------------
    "fig8": {
        "smoke": dict(
            clients=[1, 4, 8],
            sizes=[1, 2 * KiB],
            records=12,
            mcd_memory=8 * MiB,
            lustre_ds=4,
            out_of_reach={
                "record-size ordering": "both record sizes fit one 2 KiB "
                "block, so every read fetches the same block",
                "capacity misses": "8 clients x 12 records x 2 KiB is far "
                "below the 8 MiB MCD, so it never fills",
            },
        ),
        "default": dict(
            clients=[1, 2, 4, 8, 16],
            sizes=[1, 256, 2 * KiB, 16 * KiB],
            records=32,
            mcd_memory=16 * MiB,
            lustre_ds=4,
        ),
        "paper": dict(
            clients=[1, 2, 4, 8, 16, 32],
            sizes=[1, 256, 2 * KiB, 16 * KiB, 64 * KiB],
            records=128,
            mcd_memory=64 * MiB,
            lustre_ds=4,
        ),
    },
    # ---- Fig 9: IOzone throughput ------------------------------------------------------------
    "fig9": {
        "smoke": dict(
            threads=[1, 4],
            mcd_counts=[0, 2],
            file_size=2 * MiB,
            record_size=256 * KiB,
        ),
        "default": dict(
            threads=[1, 2, 4, 8],
            mcd_counts=[0, 1, 2, 4],
            file_size=8 * MiB,
            record_size=256 * KiB,
        ),
        "paper": dict(
            threads=[1, 2, 4, 8],
            mcd_counts=[0, 1, 2, 4],
            file_size=64 * MiB,
            record_size=1 * MiB,
        ),
    },
    # ---- Fig 10: shared file -------------------------------------------------------------------
    "fig10": {
        "smoke": dict(nodes=[2, 4, 8], record_size=2 * KiB, records=24),
        "default": dict(nodes=[2, 4, 8, 16, 32], record_size=2 * KiB, records=64),
        "paper": dict(nodes=[2, 4, 8, 16, 32], record_size=2 * KiB, records=256),
    },
    # ---- ablations: records per timed size/phase, IOzone file per thread ----
    "ablations": {
        "smoke": dict(records=12, iozone_file=1 * MiB),
        "default": dict(records=48, iozone_file=4 * MiB),
        "paper": dict(records=256, iozone_file=16 * MiB),
    },
    # ---- §3 motivation: small files and a Zipf trace ------------------------
    "motivation-smallfiles": {
        "smoke": dict(files=48, clients=4),
        "default": dict(files=192, clients=8),
        "paper": dict(files=1024, clients=16),
    },
    "motivation-trace": {
        "smoke": dict(operations=400, files=64, clients=2),
        "default": dict(operations=2000, files=192, clients=4),
        "paper": dict(operations=20000, files=1024, clients=8),
    },
    # ---- hotspot: replicated hot-key caching --------------------------------
    # Pass 1 replays a Zipf trace per (skew, R) and reads per-MCD load
    # imbalance off the engine counters; pass 2 hammers one hot file from
    # hot_clients concurrent clients for tail latency; pass 3 kills one
    # MCD under R=2 and replays known payloads.  trace_file_size is a
    # single size so load imbalance reflects popularity, not file-size
    # luck-of-the-draw.
    "hotspot": {
        "smoke": dict(
            num_clients=3,
            num_mcds=4,
            mcd_memory=32 * MiB,
            replica_counts=[1, 2, 3],
            skews=[0.99, 1.2],
            num_files=96,
            operations=1500,
            read_ratio=0.85,
            stat_ratio=0.4,
            trace_file_size=4 * KiB,
            record_size=2 * KiB,
            hot_clients=16,
            hot_rounds=30,
            hot_file_size=4 * KiB,
            deg_clients=2,
            deg_files=4,
            deg_file_size=8 * KiB,
            deg_rounds=6,
            cooldown=2e-3,
            seed=0x5407,
        ),
        "default": dict(
            num_clients=4,
            num_mcds=4,
            mcd_memory=64 * MiB,
            replica_counts=[1, 2, 3],
            skews=[0.6, 0.99, 1.2],
            num_files=96,
            operations=3000,
            read_ratio=0.85,
            stat_ratio=0.4,
            trace_file_size=4 * KiB,
            record_size=2 * KiB,
            hot_clients=16,
            hot_rounds=80,
            hot_file_size=4 * KiB,
            deg_clients=4,
            deg_files=6,
            deg_file_size=16 * KiB,
            deg_rounds=12,
            cooldown=2e-3,
            seed=0x5407,
        ),
        "paper": dict(
            num_clients=8,
            num_mcds=4,
            replica_counts=[1, 2, 3],
            mcd_memory=128 * MiB,
            skews=[0.6, 0.99, 1.2],
            num_files=96,
            operations=12000,
            read_ratio=0.85,
            stat_ratio=0.4,
            trace_file_size=4 * KiB,
            record_size=2 * KiB,
            hot_clients=24,
            hot_rounds=200,
            hot_file_size=4 * KiB,
            deg_clients=4,
            deg_files=8,
            deg_file_size=32 * KiB,
            deg_rounds=24,
            cooldown=2e-3,
            seed=0x5407,
        ),
    },
    # ---- readpath: partial fills / readahead / hot cache ---------------------
    # Pass 1 evicts a contiguous block suffix per round so each read is a
    # partial hit at exactly the swept ratio (one coalesced fill range);
    # pass 2 streams cold files one block per read; pass 3 re-reads a
    # small open working set (the middle hot budget is deliberately
    # smaller than the set, exercising eviction); pass 4 runs everything
    # at once with one MCD killed mid-sweep, digest-compared against the
    # same ops on a cache-off (num_mcds=0) testbed.
    "readpath": {
        "smoke": dict(
            num_mcds=4,
            mcd_memory=32 * MiB,
            hit_ratios=[0.25, 0.75],
            pf_files=2,
            pf_blocks=16,
            pf_rounds=4,
            ra_depths=[0, 4],
            ra_files=2,
            ra_blocks=24,
            hot_sizes=[0, 16 * KiB, 256 * KiB],
            hc_files=2,
            hc_blocks=8,
            hc_rounds=20,
            ft_files=3,
            ft_blocks=12,
            ft_rounds=4,
            ft_readahead=4,
            ft_hot_bytes=128 * KiB,
            cooldown=2e-3,
            seed=0x8EAD,
        ),
        "default": dict(
            num_mcds=4,
            mcd_memory=64 * MiB,
            hit_ratios=[0.25, 0.5, 0.75],
            pf_files=4,
            pf_blocks=32,
            pf_rounds=8,
            ra_depths=[0, 2, 8],
            ra_files=3,
            ra_blocks=48,
            hot_sizes=[0, 16 * KiB, 512 * KiB],
            hc_files=3,
            hc_blocks=8,
            hc_rounds=60,
            ft_files=4,
            ft_blocks=16,
            ft_rounds=8,
            ft_readahead=4,
            ft_hot_bytes=128 * KiB,
            cooldown=2e-3,
            seed=0x8EAD,
        ),
        "paper": dict(
            num_mcds=4,
            mcd_memory=128 * MiB,
            hit_ratios=[0.125, 0.25, 0.5, 0.75, 0.875],
            pf_files=6,
            pf_blocks=64,
            pf_rounds=16,
            ra_depths=[0, 2, 4, 8, 16],
            ra_files=4,
            ra_blocks=96,
            hot_sizes=[0, 16 * KiB, 512 * KiB, 2 * MiB],
            hc_files=4,
            hc_blocks=16,
            hc_rounds=150,
            ft_files=6,
            ft_blocks=24,
            ft_rounds=16,
            ft_readahead=8,
            ft_hot_bytes=256 * KiB,
            cooldown=2e-3,
            seed=0x8EAD,
        ),
    },
    # ---- chaos: fault injection / graceful degradation (§4.4) ---------------
    # window / rates / mean_downtime are simulated seconds; ops take ~100 µs,
    # so a 10 ms window is ~100 ops per client.  all_dead_slack bounds how far
    # above the cache-off baseline the fully-degraded path may sit (residual
    # cost: ejection probes + xlator overhead).
    "chaos": {
        "smoke": dict(
            num_clients=2,
            num_mcds=4,
            files_per_client=3,
            file_size=16 * KiB,
            record_size=2 * KiB,
            rounds=10,
            mcd_memory=16 * MiB,
            window=0.012,
            rates=[0.0, 200.0, 800.0],
            mean_downtime=1.5e-3,
            cooldown=2e-3,
            seed=0xC405,
            all_dead_slack=0.25,
            # Phase-pass SLO monitors (thresholds sit between the healthy
            # hit latency and the degraded miss/timeout latency; the
            # 2 KiB record size is fixed across scales, so they carry).
            slo=dict(
                read_threshold=1.8e-4,
                stat_threshold=1.5e-4,
                objective=0.90,
                burn_threshold=2.0,
                fast_frac=1 / 3,  # of one phase length
                slow_frac=2 / 3,
                min_ops=2,
            ),
        ),
        "default": dict(
            num_clients=4,
            num_mcds=4,
            files_per_client=6,
            file_size=32 * KiB,
            record_size=2 * KiB,
            rounds=32,
            mcd_memory=32 * MiB,
            window=0.05,
            rates=[0.0, 100.0, 300.0, 1000.0],
            mean_downtime=2e-3,
            cooldown=3e-3,
            seed=0xC405,
            all_dead_slack=0.20,
            slo=dict(
                read_threshold=1.8e-4,
                stat_threshold=1.5e-4,
                objective=0.90,
                burn_threshold=2.0,
                fast_frac=1 / 3,
                slow_frac=2 / 3,
                min_ops=4,
            ),
        ),
        "paper": dict(
            num_clients=8,
            num_mcds=6,
            files_per_client=8,
            file_size=64 * KiB,
            record_size=2 * KiB,
            rounds=96,
            mcd_memory=64 * MiB,
            window=0.2,
            rates=[0.0, 100.0, 300.0, 1000.0, 3000.0],
            mean_downtime=2e-3,
            cooldown=3e-3,
            seed=0xC405,
            all_dead_slack=0.20,
            slo=dict(
                read_threshold=1.8e-4,
                stat_threshold=1.5e-4,
                objective=0.90,
                burn_threshold=2.0,
                fast_frac=1 / 3,
                slow_frac=2 / 3,
                min_ops=8,
            ),
        ),
    },
    # ---- fastpath: burst == serial singleflight equality (DESIGN §15) -------
    # burst == the 8-core client CPU width, so a whole burst clears its
    # FUSE charge in one sim instant and its members overlap.
    # shared_files < burst forces duplicate stats inside each burst
    # (stat singleflight); file_size/record_size = 8 offsets keeps
    # every child's read on a distinct warm block.  chaos_window must
    # cover the slower (serial) arm's measured phase so crash/restart
    # events land mid-run on both arms.
    "fastpath": {
        "smoke": dict(
            num_clients=2,
            num_mcds=3,
            burst=8,
            shared_files=5,
            rounds=4,
            file_size=16 * KiB,
            record_size=2 * KiB,
            mcd_memory=32 * MiB,
            cooldown=2e-3,
            seed=0xFA57,
            chaos_window=0.02,
            chaos_rate=600.0,
            mean_downtime=1.5e-3,
            warm_for=2e-3,
            drain_for=2e-3,
        ),
        "default": dict(
            num_clients=4,
            num_mcds=4,
            burst=8,
            shared_files=5,
            rounds=8,
            file_size=16 * KiB,
            record_size=2 * KiB,
            mcd_memory=32 * MiB,
            cooldown=2e-3,
            seed=0xFA57,
            chaos_window=0.04,
            chaos_rate=500.0,
            mean_downtime=2e-3,
            warm_for=3e-3,
            drain_for=3e-3,
        ),
        "paper": dict(
            num_clients=8,
            num_mcds=6,
            burst=8,
            shared_files=5,
            rounds=24,
            file_size=32 * KiB,
            record_size=2 * KiB,
            mcd_memory=64 * MiB,
            cooldown=2e-3,
            seed=0xFA57,
            chaos_window=0.12,
            chaos_rate=400.0,
            mean_downtime=2e-3,
            warm_for=4e-3,
            drain_for=4e-3,
        ),
    },
    # ---- tenants: multi-tenant arbitration (ROADMAP item 2) ------------------
    # Tenant dicts are TenantLoad kwargs.  Sizing logic: per-daemon data
    # capacity is mcd_memory minus ~1 page of stat items, in ~2 KiB-class
    # chunks; the mix's live demand (sum of num_files x blocks-per-file)
    # deliberately exceeds it several-fold while the skewed "hot" tenant's
    # working set stays under its equal-split share, so vanilla LRU loses
    # exactly what arbitration can save.  The SLA scenario pins one daemon:
    # "sla" reserves a floor its own demand can fill, "noisy" outweighs it
    # 2:1 in traffic with a footprint far beyond the cache plus write
    # churn.  quantum/rebalance_ops are sized so the arbiter gets several
    # dozen moves within one warm pass.
    "tenants": {
        "smoke": dict(
            num_clients=2,
            quantum=256 * KiB,
            rebalance_ops=200,
            ghost_entries=48,
            mix=dict(
                num_mcds=2,
                mcd_memory=2 * MiB,
                operations=1600,
                seed=0x7E4A,
                tenants=[
                    dict(name="hot", num_files=48, zipf_s=1.0, weight=2.0,
                         stat_ratio=0.2),
                    dict(name="warm", num_files=256, zipf_s=0.8, weight=2.0),
                    dict(name="scan", num_files=1200, zipf_s=0.0, weight=4.0),
                ],
            ),
            sla=dict(
                num_mcds=1,
                mcd_memory=2 * MiB,
                operations=1200,
                seed=0x51A0,
                tenants=[
                    dict(name="sla", num_files=120, file_size=16 * KiB,
                         zipf_s=0.8, weight=2.0, reserved_frac=0.25),
                    dict(name="noisy", num_files=1000, zipf_s=0.0,
                         weight=4.0, read_ratio=0.6),
                ],
            ),
        ),
        "default": dict(
            num_clients=3,
            quantum=256 * KiB,
            rebalance_ops=200,
            ghost_entries=48,
            mix=dict(
                num_mcds=2,
                mcd_memory=4 * MiB,
                operations=4000,
                seed=0x7E4A,
                tenants=[
                    dict(name="hot", num_files=96, zipf_s=1.0, weight=2.0,
                         stat_ratio=0.2),
                    dict(name="warm", num_files=512, zipf_s=0.8, weight=2.0),
                    dict(name="scan", num_files=2400, zipf_s=0.0, weight=4.0),
                ],
            ),
            sla=dict(
                num_mcds=1,
                mcd_memory=4 * MiB,
                operations=3000,
                seed=0x51A0,
                tenants=[
                    dict(name="sla", num_files=240, file_size=16 * KiB,
                         zipf_s=0.8, weight=2.0, reserved_frac=0.25),
                    dict(name="noisy", num_files=2000, zipf_s=0.0,
                         weight=4.0, read_ratio=0.6),
                ],
            ),
        ),
        "paper": dict(
            num_clients=4,
            quantum=256 * KiB,
            rebalance_ops=200,
            ghost_entries=64,
            mix=dict(
                num_mcds=4,
                mcd_memory=8 * MiB,
                operations=12000,
                seed=0x7E4A,
                tenants=[
                    dict(name="hot", num_files=192, zipf_s=1.0, weight=2.0,
                         stat_ratio=0.2),
                    dict(name="warm", num_files=1024, zipf_s=0.8, weight=2.0),
                    dict(name="scan", num_files=9600, zipf_s=0.0, weight=4.0),
                ],
            ),
            sla=dict(
                num_mcds=1,
                mcd_memory=8 * MiB,
                operations=8000,
                seed=0x51A0,
                tenants=[
                    dict(name="sla", num_files=480, file_size=16 * KiB,
                         zipf_s=0.8, weight=2.0, reserved_frac=0.25),
                    dict(name="noisy", num_files=4000, zipf_s=0.0,
                         weight=4.0, read_ratio=0.6),
                ],
            ),
        ),
    },
    # ---- elastic: online membership changes (ROADMAP item 5) -----------------
    # rounds are fixed work (stats + block-0 reads + a scratch rewrite per
    # client); the membership event fires at round 0 and the forwarding
    # window spans window_rounds of the measured steady-state round time —
    # deliberately < 1, so demand backfill alone cannot cover every
    # remapped key and background migration has something to win.
    "elastic": {
        "smoke": dict(
            num_clients=2,
            num_mcds=3,
            files_per_client=6,
            file_size=8 * KiB,
            record_size=2 * KiB,
            mcd_memory=16 * MiB,
            warm_rounds=2,
            rounds_before=2,
            rounds_after=6,
            window_rounds=0.6,
            migrate_batch=32,
            migrate_interval=1e-5,
            cooldown=2e-3,
            chaos_rate=400.0,
            mean_downtime=1.5e-3,
            naive_dip_min=0.4,
            cold_dip_min=0.6,
            seed=0xE1A5,
        ),
        "default": dict(
            num_clients=4,
            num_mcds=4,
            files_per_client=10,
            file_size=16 * KiB,
            record_size=2 * KiB,
            mcd_memory=32 * MiB,
            warm_rounds=2,
            rounds_before=3,
            rounds_after=8,
            window_rounds=0.6,
            migrate_batch=32,
            migrate_interval=1e-5,
            cooldown=3e-3,
            chaos_rate=300.0,
            mean_downtime=2e-3,
            naive_dip_min=0.45,
            cold_dip_min=0.65,
            seed=0xE1A5,
        ),
        "paper": dict(
            num_clients=8,
            num_mcds=6,
            files_per_client=12,
            file_size=32 * KiB,
            record_size=2 * KiB,
            mcd_memory=64 * MiB,
            warm_rounds=2,
            rounds_before=4,
            rounds_after=10,
            window_rounds=0.6,
            migrate_batch=64,
            migrate_interval=1e-5,
            cooldown=3e-3,
            chaos_rate=300.0,
            mean_downtime=2e-3,
            naive_dip_min=0.5,
            cold_dip_min=0.7,
            seed=0xE1A5,
        ),
    },
}


def params_for(experiment: str, scale: str) -> dict:
    try:
        by_scale = PARAMS[experiment]
    except KeyError:
        raise KeyError(f"no parameters for experiment {experiment!r}") from None
    try:
        return dict(by_scale[scale])
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r} for {experiment}; have {sorted(by_scale)}"
        ) from None
