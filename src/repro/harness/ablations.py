"""Ablation experiments beyond the paper's figures.

These probe the design decisions §4.3/§4.4 discusses and the §7 future
work: block-size tradeoff, hashing scheme, threaded updates, MCD
failures, and RDMA transport for the cache bank.

Independent sweeps (blocksize/hashing/threading/transport) are tables
of :class:`~repro.harness.sweep.Point`s measured in one
:func:`~repro.harness.sweep.sweep`; the failure, client-cache and
elasticity ablations mutate a single stateful simulation mid-run and
stay sequential by construction.
"""

from __future__ import annotations

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.core.config import IMCaConfig
from repro.harness.experiment import ExperimentResult, register
from repro.harness.params import params_for
from repro.harness.report import pct_change
from repro.harness.sweep import Point, column, sweep
from repro.util.units import KiB
from repro.workloads.base import drive


@register(
    "ablation-blocksize",
    "§4.3.1 / Fig 6",
    "Block-size tradeoff sweep",
    "Read latency for small and large records across IMCa block sizes — "
    "small blocks win small reads, large blocks win large reads.",
)
def run_blocksize(scale: str = "default") -> ExperimentResult:
    p = params_for("ablations", scale)
    block_sizes = [256, 1 * KiB, 2 * KiB, 8 * KiB, 64 * KiB]
    result = ExperimentResult(
        "ablation-blocksize", scale, x_name="block size", x_values=block_sizes
    )
    lat = dict(record_sizes=[1, 64 * KiB], records_per_size=p["records"])
    rows = sweep({
        "block size": [
            Point("gluster", TestbedConfig(num_mcds=1, imca=IMCaConfig(block_size=bs)), "latency", lat)
            for bs in block_sizes
        ]
    })["block size"]
    small_lat = column(result, "read r=1B", rows, "read", 0)
    large_lat = column(result, "read r=64K", rows, "read", 1)
    result.check(
        "small records favour small blocks",
        small_lat[0] < small_lat[-1],
        f"1B latency: 256B-block={small_lat[0]:.3g}s 64K-block={small_lat[-1]:.3g}s",
    )
    result.check(
        "large records favour large blocks",
        large_lat[-1] < large_lat[0],
        f"64K latency: 256B-block={large_lat[0]:.3g}s 64K-block={large_lat[-1]:.3g}s",
    )
    return result


@register(
    "ablation-hashing",
    "§5.5 / §7",
    "CRC32 vs modulo block placement",
    "Throughput and placement balance for the two distribution functions.",
)
def run_hashing(scale: str = "default") -> ExperimentResult:
    p = params_for("ablations", scale)
    selectors = ["crc32", "modulo"]
    result = ExperimentResult("ablation-hashing", scale, x_name="selector", x_values=selectors)
    io = dict(file_size=p["iozone_file"], record_size=64 * KiB)
    rows = sweep({
        "selector": [
            Point(
                "gluster",
                TestbedConfig(num_clients=4, num_mcds=4, imca=IMCaConfig(selector=sel)),
                "iozone",
                io,
            )
            for sel in selectors
        ]
    })["selector"]
    tputs = column(result, "read throughput", rows, "read_throughput")
    # Cumulative stores, not current items: the benchmark's closes
    # purge data blocks, which would leave only stat keys behind.
    imbalance = [max(r["total_items"]) / max(1, min(r["total_items"])) for r in rows]
    result.series["placement imbalance (max/min)"] = imbalance
    result.units["placement imbalance (max/min)"] = "ratio"
    result.check(
        "modulo placement is at least as balanced as CRC32",
        imbalance[1] <= imbalance[0] + 1e-9,
        f"crc32={imbalance[0]:.2f} modulo={imbalance[1]:.2f}",
    )
    result.check(
        "both distributions deliver comparable throughput (within 30%)",
        abs(tputs[0] - tputs[1]) / max(tputs) < 0.30,
        f"crc32={tputs[0]:.3g} modulo={tputs[1]:.3g} B/s",
    )
    return result


@register(
    "ablation-threading",
    "§4.3.2 / Fig 6(c)",
    "Synchronous vs threaded SMCache updates",
    "Write latency and post-drain hit rate for both update modes.",
)
def run_threading(scale: str = "default") -> ExperimentResult:
    p = params_for("ablations", scale)
    modes = ["sync", "threaded"]
    result = ExperimentResult("ablation-threading", scale, x_name="mode", x_values=modes)
    lat = dict(record_sizes=[2 * KiB], records_per_size=p["records"])
    rows = sweep({
        "mode": [
            Point(
                "gluster",
                TestbedConfig(num_mcds=1, imca=IMCaConfig(threaded_updates=threaded)),
                "latency",
                lat,
            )
            for threaded in (False, True)
        ]
    })["mode"]
    writes = column(result, "write latency", rows, "write")
    hits = [
        r["cm"].get("read_hits", 0)
        / max(1, r["cm"].get("read_hits", 0) + r["cm"].get("read_misses", 0))
        for r in rows
    ]
    result.series["read hit rate"] = hits
    result.units["read hit rate"] = "ratio"
    result.check(
        "threaded updates reduce write latency",
        writes[1] < writes[0],
        f"sync={writes[0]:.3g}s threaded={writes[1]:.3g}s",
    )
    result.check(
        "both modes reach a high steady-state hit rate (>= 90%)",
        min(hits) >= 0.90,
        f"hit rates: sync={hits[0]:.2f} threaded={hits[1]:.2f}",
    )
    return result


@register(
    "ablation-failures",
    "§4.4",
    "MCD failure transparency",
    "Kill MCDs mid-run: correctness holds, performance degrades to the "
    "server path and recovers when daemons return.",
)
def run_failures(scale: str = "default") -> ExperimentResult:
    p = params_for("ablations", scale)
    phases = ["healthy", "1 dead", "all dead", "recovered"]
    result = ExperimentResult("ablation-failures", scale, x_name="phase", x_values=phases)
    tb = build_gluster_testbed(TestbedConfig(num_mcds=2))
    sim = tb.sim
    c = tb.clients[0]
    n = p["records"]
    lat: list[float] = []
    correct: list[bool] = []

    def phase_reads(fd, payload):
        t0 = sim.now
        ok = True
        for i in range(n):
            r = yield from c.read(fd, (i % 8) * 4 * KiB, 4 * KiB)
            ok = ok and r.data == payload[(i % 8) * 4 * KiB :][: 4 * KiB]
        lat.append((sim.now - t0) / n)
        correct.append(ok)

    def body():
        payload = bytes(i % 256 for i in range(32 * KiB))
        fd = yield from c.create("/fail/f")
        yield from c.write(fd, 0, len(payload), payload)
        yield from phase_reads(fd, payload)  # healthy
        tb.mcds[0].kill()
        yield from phase_reads(fd, payload)  # 1 dead
        tb.mcds[1].kill()
        yield from phase_reads(fd, payload)  # all dead
        tb.mcds[0].restart()
        tb.mcds[1].restart()
        # One untimed warm pass: restarted daemons are cold, and the
        # timed phase should measure steady-state cache-path latency.
        for i in range(8):
            yield from c.read(fd, i * 4 * KiB, 4 * KiB)
        yield from phase_reads(fd, payload)  # recovered

    drive(sim, body())
    result.series["read latency"] = lat
    result.series["correct"] = [1.0 if ok else 0.0 for ok in correct]
    result.units["correct"] = "count"
    result.check(
        "correctness unaffected by MCD failures (§4.4)",
        all(correct),
        f"correct per phase: {correct}",
    )
    result.check(
        "losing all MCDs degrades latency towards the server path",
        lat[2] > lat[0],
        f"healthy={lat[0]:.3g}s all-dead={lat[2]:.3g}s",
    )
    result.check(
        "recovered daemons restore cache-path latency (within 50%)",
        lat[3] < lat[2] and lat[3] < lat[0] * 1.5,
        f"recovered={lat[3]:.3g}s healthy={lat[0]:.3g}s",
    )
    return result


@register(
    "ablation-client-cache",
    "§1 / §3 motivation",
    "Timeout-validated client cache vs IMCa under read/write sharing",
    "A GlusterFS io-cache client serves stale data inside its validation "
    "window; IMCa's server-coherent bank never does — the coherency trade "
    "that motivates the intermediate tier.",
)
def run_client_cache(scale: str = "default") -> ExperimentResult:
    from repro.gluster.client import GlusterClient
    from repro.gluster.iocache import IoCacheXlator
    from repro.gluster.protocol import ClientProtocol
    from repro.gluster.xlator import Xlator
    from repro.net.fabric import Node
    from repro.net.rpc import Endpoint

    p = params_for("ablations", scale)
    rounds = max(8, p["records"] // 4)
    configs = ["io-cache client", "IMCa (1 MCD)"]
    result = ExperimentResult(
        "ablation-client-cache", scale, x_name="configuration", x_values=configs
    )
    stale_counts: list[int] = []
    read_lat: list[float] = []

    def sharing_rounds(sim, writer_ops, reader_ops, on_result):
        """Writer updates a shared 4 KiB record; reader polls it."""

        def body():
            fd_w = yield from writer_ops.create("/coh/shared")
            yield from writer_ops.write(fd_w, 0, 4 * KiB, b"\x00" * 4 * KiB)
            fd_r = yield from reader_ops.open("/coh/shared")
            stale = 0
            total_lat = 0.0
            for i in range(1, rounds + 1):
                payload = bytes([i % 256]) * 4 * KiB
                yield from writer_ops.write(fd_w, 0, 4 * KiB, payload)
                t0 = sim.now
                r = yield from reader_ops.read(fd_r, 0, 4 * KiB)
                total_lat += sim.now - t0
                if r.data != payload:
                    stale += 1
            on_result(stale, total_lat / rounds)

        proc = sim.process(body())
        sim.run(until=proc)

    # -- io-cache configuration ------------------------------------------------
    tb = build_gluster_testbed(TestbedConfig())
    node = Node(tb.sim, "ioc-client")
    ioc_stack = Xlator.build_stack(
        [
            IoCacheXlator(tb.sim, cache_timeout=1.0),
            ClientProtocol(Endpoint(tb.net, node), tb.server),
        ]
    )
    reader = GlusterClient(tb.sim, node, ioc_stack)
    sharing_rounds(
        tb.sim,
        tb.clients[0],
        reader,
        lambda s, L: (stale_counts.append(s), read_lat.append(L)),
    )

    # -- IMCa configuration ----------------------------------------------------
    tb2 = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=1))
    sharing_rounds(
        tb2.sim,
        tb2.clients[0],
        tb2.clients[1],
        lambda s, L: (stale_counts.append(s), read_lat.append(L)),
    )

    result.series["stale reads"] = [float(s) for s in stale_counts]
    result.units["stale reads"] = "count"
    result.series["mean read latency"] = read_lat
    result.check(
        "the timeout-validated client cache serves stale data under sharing",
        stale_counts[0] > 0,
        f"{stale_counts[0]}/{rounds} reads stale",
    )
    result.check(
        "IMCa never serves stale data (writes are server-serialised)",
        stale_counts[1] == 0,
        f"{stale_counts[1]}/{rounds} reads stale",
    )
    result.check(
        "the client cache's only advantage is local-read latency",
        read_lat[0] < read_lat[1],
        f"io-cache={read_lat[0]:.3g}s imca={read_lat[1]:.3g}s",
    )
    return result


@register(
    "ablation-elasticity",
    "§4.4 / §7",
    "Growing the cache bank: CRC32 vs ketama remapping",
    "Add an MCD to a warm bank and measure how much of the cached "
    "working set survives the re-mapping under each key distribution.",
)
def run_elasticity(scale: str = "default") -> ExperimentResult:
    p = params_for("ablations", scale)
    selectors = ["crc32", "ketama"]
    result = ExperimentResult(
        "ablation-elasticity", scale, x_name="selector", x_values=selectors
    )
    survive: list[float] = []
    for sel in selectors:
        tb = build_gluster_testbed(TestbedConfig(num_mcds=2, imca=IMCaConfig(selector=sel)))
        sim = tb.sim
        c = tb.clients[0]
        cm = tb.cmcaches[0]
        n = p["records"]

        def body():
            fd = yield from c.create("/grow/f")
            for i in range(n):
                yield from c.write(fd, i * 2 * KiB, 2 * KiB)
            # Warm pass: all blocks resident under the 2-server mapping.
            for i in range(n):
                yield from c.read(fd, i * 2 * KiB, 2 * KiB)
            # Grow the bank cold — no forwarding window, so what
            # survives is the selector's doing — and re-read.  The
            # membership is shared: every client sees the new daemon.
            cm.mc.add_server(tb.spawn_mcd(2))
            before_h = cm.metrics.get("read_hits")
            before_m = cm.metrics.get("read_misses")
            for i in range(n):
                yield from c.read(fd, i * 2 * KiB, 2 * KiB)
            hits = cm.metrics.get("read_hits") - before_h
            misses = cm.metrics.get("read_misses") - before_m
            return hits / max(1, hits + misses)

        proc = sim.process(body())
        sim.run(until=proc)
        survive.append(proc.value)
    result.series["hit rate after growing 2 -> 3 MCDs"] = survive
    result.units["hit rate after growing 2 -> 3 MCDs"] = "ratio"
    result.check(
        "ketama preserves most of the warm set across a bank resize",
        survive[1] >= 0.55,
        f"ketama hit rate={survive[1]:.2f} (ideal 2/3)",
    )
    result.check(
        "crc32-modulo remapping cold-starts most of the bank",
        survive[0] <= 0.45,
        f"crc32 hit rate={survive[0]:.2f} (ideal 1/3)",
    )
    result.check(
        "ketama strictly beats crc32 on resize",
        survive[1] > survive[0],
        f"ketama={survive[1]:.2f} crc32={survive[0]:.2f}",
    )
    return result


@register(
    "ablation-transport",
    "§7 future work",
    "IPoIB vs native RDMA for cache-bank traffic",
    "Moving CMCache/SMCache <-> MCD traffic to RDMA cuts the cache-hit "
    "round trip, the paper's anticipated §7 gain.",
)
def run_transport(scale: str = "default") -> ExperimentResult:
    p = params_for("ablations", scale)
    transports = ["ipoib", "ib-rdma"]
    result = ExperimentResult(
        "ablation-transport", scale, x_name="cache transport", x_values=transports
    )
    lat = dict(record_sizes=[1, 2 * KiB], records_per_size=p["records"])
    rows = sweep({
        "cache transport": [
            Point(
                "gluster",
                # ipoib is the file system's own fabric: no separate cache net.
                TestbedConfig(num_mcds=1, mcd_transport=None if t == "ipoib" else t),
                "latency",
                lat,
            )
            for t in transports
        ]
    })["cache transport"]
    reads = column(result, "1-byte read latency", rows, "read", 0)
    result.check(
        "RDMA cache transport cuts cache-hit latency by >= 25%",
        pct_change(reads[0], reads[1]) >= 25,
        f"ipoib={reads[0]:.3g}s rdma={reads[1]:.3g}s",
    )
    return result
