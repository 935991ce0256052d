"""Testbed builders: assemble complete simulated clusters.

Mirrors the paper's experimental setup (§5.1): a 64-node InfiniBand DDR
cluster of 8-core nodes; the GlusterFS server with an 8-disk RAID;
IPoIB transport everywhere; MCDs on independent nodes with up to 6 GB
of memory; Lustre with a separate MDS and 1 or 4 data servers.

Every experiment in the harness builds one of these testbeds from a
:class:`TestbedConfig` and runs workload processes against its clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

from repro.core.cmcache import CMCacheXlator
from repro.core.config import IMCaConfig
from repro.core.keys import KeyCache
from repro.core.smcache import SMCacheXlator
from repro.gluster.client import GlusterClient
from repro.gluster.protocol import ClientProtocol
from repro.gluster.server import GlusterServer
from repro.gluster.xlator import Xlator
from repro.localfs.fs import LocalFS
from repro.lustre.client import LustreClient
from repro.lustre.mds import MetadataServer
from repro.lustre.ost import ObjectServer
from repro.lustre.striping import StripeLayout
from repro.memcached.client import MemcacheClient
from repro.memcached.daemon import MemcachedDaemon
from repro.memcached.hashing import selector as make_selector
from repro.memcached.membership import ElasticController, McdMembership
from repro.memcached.tenancy import TenantArbiter
from repro.net.fabric import Network, Node
from repro.net.profiles import profile
from repro.net.rpc import Endpoint, ResilienceConfig
from repro.nfs.client import NfsClient
from repro.nfs.server import NfsServer
from repro.obs.context import Observability
from repro.obs.registry import merged_counters
from repro.obs.samplers import Sampler, gluster_probes
from repro.obs.trace import NULL_TRACER
from repro.oscache.pagecache import PageCache
from repro.sim.core import Simulator
from repro.sim.rand import RandomStreams
from repro.storage.raid import Raid0
from repro.util.stats import Counter
from repro.util.units import GiB, MiB


@dataclass
class TestbedConfig:
    """Knobs shared by all three testbeds."""

    num_clients: int = 1
    transport: str = "ipoib"

    # -- file server ------------------------------------------------------
    #: Server page-cache budget (8 GB nodes; ~6 GB usable for cache).
    server_cache_bytes: int = 6 * GiB
    #: RAID members at the GlusterFS/NFS server (§5.1: 8 disks).
    raid_disks: int = 8

    # -- IMCa -----------------------------------------------------------------
    #: Number of MemCached daemons (0 = the paper's "NoCache").
    num_mcds: int = 0
    #: Memory each MCD may use (§5.1: "upto 6GB").
    mcd_memory: int = 6 * GiB
    #: Transport for cache-bank traffic; None = same fabric as the file
    #: system.  "ib-rdma" models the paper's §7 future-work idea of
    #: moving MCD traffic to native RDMA.
    mcd_transport: Optional[str] = None
    imca: IMCaConfig = field(default_factory=IMCaConfig)
    #: Failure handling: MCD deadlines and health tracking, brick
    #: retries (:class:`ResilienceConfig`); ``None``: every RPC is one
    #: attempt and a failed MCD call is a miss.
    resilience: Optional[ResilienceConfig] = None

    # -- Lustre ------------------------------------------------------------------
    #: Data servers (1DS / 4DS in §5).
    num_data_servers: int = 1

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("need at least one client")
        if self.num_mcds < 0:
            raise ValueError("num_mcds must be >= 0")
        # Replication needs R distinct daemons to hold R copies; a
        # config asking for more replicas than MCDs is a sizing mistake,
        # not something to silently clamp.
        if self.num_mcds and self.imca.replicas > self.num_mcds:
            raise ValueError(
                f"imca.replicas={self.imca.replicas} exceeds num_mcds={self.num_mcds}"
            )


def _make_fs(
    sim: Simulator,
    name: str,
    disks: int,
    cache_bytes: int,
    tracer=NULL_TRACER,
) -> LocalFS:
    device = Raid0(sim, disks=disks, name=f"{name}.raid")
    cache = PageCache(cache_bytes)
    return LocalFS(sim, device, cache, name=name, tracer=tracer)


# --------------------------------------------------------------------------- #
# GlusterFS (+ optional IMCa)
# --------------------------------------------------------------------------- #
@dataclass
class GlusterTestbed:
    """A built GlusterFS cluster, optionally fronted by IMCa."""

    sim: Simulator
    net: Network
    config: TestbedConfig
    #: One brick (§5.1): ``servers`` and ``smcaches`` are lists of one.
    servers: list[GlusterServer]
    mcds: list[MemcachedDaemon]
    clients: list[GlusterClient]
    cmcaches: list[Optional[CMCacheXlator]]
    smcaches: list[Optional[SMCacheXlator]]
    obs: Observability = field(default_factory=Observability)
    #: Named random streams (only when ``config.resilience`` is set).
    streams: Optional[RandomStreams] = None
    #: The MCD bank every cache client routes over (None: no MCDs).
    membership: Optional[McdMembership] = None
    #: Builds one more daemon like the bank's (node id -> daemon).
    spawn_mcd: Optional[Callable[[int], MemcachedDaemon]] = None
    #: Per-client RPC endpoints (fabric + cache-bank), read by the perf
    #: ledger; empty unless the builder collected them.
    client_endpoints: list[Endpoint] = field(default_factory=list)

    @property
    def server(self) -> GlusterServer:
        return self.servers[0]

    @cached_property
    def elastic(self) -> ElasticController:
        """The resize controller (add/drain/remove daemons mid-run).

        The bank is always resizable, but the controller — its
        ``mcd-ops`` node, endpoint and ``elastic`` metrics component —
        exists only once a membership change is asked for, so a run
        that never resizes exports exactly what it always did."""
        if self.membership is None:
            raise ValueError("elastic membership needs num_mcds >= 1")
        # Replication fixes R owners per key; elastic remapping would
        # have to re-derive all R sets per window, which is not
        # supported — one owner per key under elasticity.
        if self.config.imca.replicas > 1:
            raise ValueError("elastic membership requires imca.replicas == 1")
        return ElasticController(
            self.sim, self.membership, self.mcds[0].endpoint.net,
            node_factory=self.spawn_mcd,
            selector_name=self.config.imca.selector,
            metrics=self.obs.registry.component("elastic"),
            tracer=self.obs.tracer,
        )

    def all_mcds(self) -> list[MemcachedDaemon]:
        """Every attached daemon — including ones added or detached
        mid-run — in stable node-id order."""
        if self.membership is None:
            return []
        return [m.daemon for _, m in sorted(self.membership.members.items())]

    def arm_faults(self, schedule):
        """Arm a :class:`~repro.faults.schedule.FaultSchedule` against
        this testbed; returns the :class:`FaultInjector`."""
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import MEMBERSHIP_KINDS

        resizes = any(ev.kind in MEMBERSHIP_KINDS for ev in schedule)
        disks = []
        for s in self.servers:
            disks.extend(getattr(s.fs.device, "members", [s.fs.device]))
        injector = FaultInjector(
            self.sim,
            mcds=self.mcds,
            server_nodes=[s.node for s in self.servers],
            net=self.net,
            disks=disks,
            metrics=self.obs.registry.component("faults"),
            oplog=self.obs.oplog,
            elastic=self.elastic if resizes else None,
        )
        return injector.arm(schedule)

    def mcd_stats(self) -> dict[str, int]:
        """Aggregated engine statistics across the MCD array (untimed)."""
        return merged_counters(
            Counter(dict(mcd.engine.stat_dict())) for mcd in self.all_mcds()
        )

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """Per-tenant accounting merged across the MCD array (untimed).

        ``{tenant: {hits, misses, evictions, reclaimed, ghost_hits,
        bytes, items, target_bytes, reserved_bytes}}`` plus an
        ``~arbiter`` meta entry; empty when tenancy is off.
        """
        merged: dict[str, Counter] = {}
        for mcd in self.all_mcds():
            for name, stats in mcd.engine.tenant_stats().items():
                merged.setdefault(name, Counter()).merge(Counter(dict(stats)))
        return {name: c.as_dict() for name, c in merged.items()}

    def cm_stats(self) -> dict[str, int]:
        """Aggregated CMCache translator counters across all clients."""
        return merged_counters(cm.metrics if cm else None for cm in self.cmcaches)

    def sm_stats(self) -> dict[str, int]:
        """The brick's SMCache translator counters."""
        return merged_counters(sm.metrics if sm else None for sm in self.smcaches)

    def mcclient_stats(self) -> dict[str, int]:
        """Aggregated MemcacheClient counters (hits/misses/errors and the
        ``replica_*`` fan-out/spread metrics) across every holder."""
        stats = [cm.mc.stats for cm in self.cmcaches if cm is not None]
        stats.extend(sm.mc.stats for sm in self.smcaches if sm is not None)
        return merged_counters(stats)

    def fastpath_stats(self) -> dict[str, int]:
        """Singleflight attribution (DESIGN §15): the gets and stats that
        shared somebody else's fetch, and those whose flight failed and
        were re-dispersed.  All zero unless ops overlapped on a client."""
        mcc = self.mcclient_stats()
        cm = self.cm_stats()
        return {
            "sf_follows": mcc.get("sf_follows", 0),
            "sf_redispersed": mcc.get("sf_redispersed", 0),
            "stat_sf_follows": cm.get("fastpath_stat_follows", 0),
            "stat_sf_redispersed": cm.get("fastpath_stat_redispersed", 0),
        }

    def snapshot_metrics(self):
        """Fold live component state into the registry and return it.

        Gauge-like sources outside the registry (MCD engine stats, RPC
        and fabric counters, tracer tier/op histograms) are copied in by
        assignment, so calling this repeatedly is idempotent.
        """
        reg = self.obs.registry
        if self.mcds:
            mcd = reg.component("mcd")
            for k, v in self.mcd_stats().items():
                mcd.counters.values[k] = int(v)
            mcc = reg.component("mcclient")
            for k, v in self.mcclient_stats().items():
                mcc.counters.values[k] = int(v)
            for name, stats in self.tenant_stats().items():
                tc = reg.component(f"tenant:{name}")
                for k, v in stats.items():
                    tc.counters.values[k] = int(v)
        net = reg.component("net")
        for k, v in self.net.stats.as_dict().items():
            net.counters.values[k] = v
        tracer = self.obs.tracer
        if tracer.enabled:
            tiers = reg.component("tiers")
            for name, hist in tracer.tier_stats.items():
                tiers.histograms[name] = hist
            ops = reg.component("ops")
            for name, hist in tracer.op_stats.items():
                ops.histograms[name] = hist
            trc = reg.component("tracer")
            trc.counters.values["spans_recorded"] = len(tracer.spans)
            trc.counters.values["spans_dropped"] = tracer.dropped
        oplog = self.obs.oplog
        if oplog is not None:
            olc = reg.component("oplog")
            olc.counters.values["ops_recorded"] = len(oplog.records)
            olc.counters.values["ops_dropped"] = oplog.dropped
            olc.counters.values["orphan_annotations"] = oplog.orphan_annotations
        return reg


def build_gluster_testbed(
    cfg: Optional[TestbedConfig] = None, obs: Optional[Observability] = None
) -> GlusterTestbed:
    """Assemble GlusterFS [+ IMCa when ``cfg.num_mcds > 0``].

    Pass an :class:`Observability` bundle to instrument the testbed;
    the default bundle is fully disabled (null tracer, no sampler).
    """
    cfg = cfg or TestbedConfig()
    obs = obs or Observability()
    sim = Simulator()
    obs.bind(sim)
    tracer = obs.tracer
    reg = obs.registry
    net = Network(sim, profile(cfg.transport))
    # Cache-bank traffic may ride a separate transport (§7 future work).
    cache_net = (
        net
        if cfg.mcd_transport is None
        else Network(sim, profile(cfg.mcd_transport), name="cache-net")
    )

    # Failure handling (opt-in): MCD health rides each cache client; the
    # brick gets no deadline — a loaded disk legitimately takes tens of
    # milliseconds, and a dead brick fails fast at the fabric anyway —
    # but retries with jittered backoff to ride out a flap.
    res = cfg.resilience
    streams: Optional[RandomStreams] = None
    jitter = None
    if res is not None:
        streams = RandomStreams(res.seed)
        jitter = streams.stream("rpc.jitter")
        net.loss_rng = streams.stream("net.loss")
        if cache_net is not net:
            cache_net.loss_rng = streams.stream("cachenet.loss")

    # Multi-tenant MCD tier (DESIGN §14): one arbiter per daemon, built
    # fresh on restart too, so arbitration state dies with the process.
    tenancy_factory = None
    if cfg.imca.tenants is not None:
        imca = cfg.imca

        def tenancy_factory(mem_limit: int) -> TenantArbiter:
            return TenantArbiter(
                imca.tenants,
                mem_limit,
                arbitrate=imca.tenant_arbitrate,
                quantum=imca.tenant_quantum,
                rebalance_ops=imca.tenant_rebalance_ops,
                ghost_entries=imca.tenant_ghost_entries,
            )

    # MCD array, and the one membership every cache client routes over.
    def spawn_mcd(node_id: int) -> MemcachedDaemon:
        return MemcachedDaemon(
            sim, cache_net, Node(sim, f"mcd{node_id}"),
            cfg.mcd_memory, tracer=tracer, tenancy_factory=tenancy_factory,
        )

    mcds = [spawn_mcd(i) for i in range(cfg.num_mcds)]
    use_imca = bool(mcds)
    membership = McdMembership(mcds) if use_imca else None
    # A key's name and its owner are pure functions of the path, the
    # block size and the ring, so every translator shares one key table
    # and every cache client one selector, hence one owner table per
    # epoch (McdMembership.owner_table): memory per client does not grow
    # with the keyspace.
    keys = KeyCache(block_size=cfg.imca.block_size)
    select = make_selector(cfg.imca.selector, cfg.imca.block_size)

    # The one brick server (§5.1).
    snode = Node(sim, "gfs-server")
    fs = _make_fs(sim, "brick0", cfg.raid_disks, cfg.server_cache_bytes, tracer)
    server_xlators: list[Xlator] = []
    smcache: Optional[SMCacheXlator] = None
    if use_imca:
        # rr_seed staggers the read round-robin start per holder (the
        # brick's is 0, client i's is 1 + i) so concurrent readers don't
        # stampede the same replica first.
        mc = MemcacheClient(
            Endpoint(cache_net, snode, tracer=tracer), mcds,
            select, resilience=res,
            replicas=cfg.imca.replicas, rr_seed=0,
            membership=membership,
        )
        smcache = SMCacheXlator(
            sim, mc, cfg.imca, metrics=reg.component(f"smcache.{snode.name}"),
            keys=keys,
        )
        server_xlators.append(smcache)
    server = GlusterServer(sim, net, snode, fs, server_xlators, tracer=tracer)

    # Clients.
    clients: list[GlusterClient] = []
    cmcaches: list[Optional[CMCacheXlator]] = []
    client_endpoints: list[Endpoint] = []
    for i in range(cfg.num_clients):
        cnode = Node(sim, f"client{i}")
        ep = Endpoint(net, cnode, tracer=tracer)
        protocol = ClientProtocol(ep, server, jitter)
        stack: list[Xlator] = []
        cmcache: Optional[CMCacheXlator] = None
        if use_imca:
            mc_ep = ep if cache_net is net else Endpoint(cache_net, cnode, tracer=tracer)
            mc = MemcacheClient(
                mc_ep, mcds, select, resilience=res,
                replicas=cfg.imca.replicas, rr_seed=1 + i,
                membership=membership,
            )
            cmcache = CMCacheXlator(
                mc, cfg.imca, metrics=reg.component(f"cmcache.{cnode.name}"),
                sim=sim, keys=keys,
            )
            stack.append(cmcache)
        stack.append(protocol)
        clients.append(GlusterClient(sim, cnode, Xlator.build_stack(stack), tracer=tracer))
        cmcaches.append(cmcache)
        client_endpoints.append(ep)
        if cmcache is not None and cmcache.mc.endpoint is not ep:
            client_endpoints.append(cmcache.mc.endpoint)

    tb = GlusterTestbed(
        sim, net, cfg, [server], mcds, clients, cmcaches, [smcache], obs,
        streams=streams, membership=membership, spawn_mcd=spawn_mcd,
        client_endpoints=client_endpoints,
    )
    if obs.sample_interval:
        obs.samplers.append(
            Sampler(sim, reg.component("samples"), gluster_probes(tb), obs.sample_interval)
        )
    return tb


# --------------------------------------------------------------------------- #
# Lustre
# --------------------------------------------------------------------------- #
@dataclass
class LustreTestbed:
    """A built Lustre cluster (MDS + OSTs + clients)."""

    sim: Simulator
    net: Network
    config: TestbedConfig
    mds: MetadataServer
    osts: list[ObjectServer]
    clients: list[LustreClient]
    obs: Observability = field(default_factory=Observability)


#: Lustre node sizing: per-client cache budget, stripe size, and each
#: data server's page cache and disk count.
LUSTRE_CLIENT_CACHE = 1 * GiB
LUSTRE_STRIPE_SIZE = 1 * MiB
OST_CACHE_BYTES = 6 * GiB
OST_DISKS = 2


def build_lustre_testbed(
    cfg: Optional[TestbedConfig] = None, obs: Optional[Observability] = None
) -> LustreTestbed:
    cfg = cfg or TestbedConfig()
    obs = obs or Observability()
    sim = Simulator()
    obs.bind(sim)
    tracer = obs.tracer
    net = Network(sim, profile(cfg.transport))

    layout = StripeLayout(count=cfg.num_data_servers, stripe_size=LUSTRE_STRIPE_SIZE)
    mds_node = Node(sim, "mds")
    mds_fs = _make_fs(sim, "mdt", disks=2, cache_bytes=2 * GiB, tracer=tracer)
    mds = MetadataServer(sim, net, mds_node, mds_fs, layout)

    osts = []
    for i in range(cfg.num_data_servers):
        onode = Node(sim, f"ost{i}")
        ofs = _make_fs(
            sim, f"ost{i}", disks=OST_DISKS,
            cache_bytes=OST_CACHE_BYTES, tracer=tracer,
        )
        osts.append(ObjectServer(sim, net, onode, ofs, index=i))

    clients = []
    for i in range(cfg.num_clients):
        cnode = Node(sim, f"client{i}")
        ep = Endpoint(net, cnode, tracer=tracer)
        clients.append(
            LustreClient(sim, cnode, ep, mds, osts, cache_bytes=LUSTRE_CLIENT_CACHE)
        )
    return LustreTestbed(sim, net, cfg, mds, osts, clients, obs)


# --------------------------------------------------------------------------- #
# NFS
# --------------------------------------------------------------------------- #
@dataclass
class NFSTestbed:
    """A built single-server NFS cluster."""

    sim: Simulator
    net: Network
    config: TestbedConfig
    server: NfsServer
    clients: list[NfsClient]
    obs: Observability = field(default_factory=Observability)


def build_nfs_testbed(
    cfg: Optional[TestbedConfig] = None, obs: Optional[Observability] = None
) -> NFSTestbed:
    cfg = cfg or TestbedConfig()
    obs = obs or Observability()
    sim = Simulator()
    obs.bind(sim)
    tracer = obs.tracer
    net = Network(sim, profile(cfg.transport))
    snode = Node(sim, "nfs-server")
    fs = _make_fs(sim, "export", cfg.raid_disks, cfg.server_cache_bytes, tracer)
    server = NfsServer(sim, net, snode, fs)
    clients = []
    for i in range(cfg.num_clients):
        cnode = Node(sim, f"client{i}")
        ep = Endpoint(net, cnode, tracer=tracer)
        clients.append(NfsClient(sim, cnode, ep, server))
    return NFSTestbed(sim, net, cfg, server, clients, obs)


def scaled(cfg: TestbedConfig, **overrides) -> TestbedConfig:
    """Convenience: copy a config with overrides."""
    return replace(cfg, **overrides)
