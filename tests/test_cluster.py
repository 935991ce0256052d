"""Tests for the testbed builders and their configuration."""

import pytest

from repro.cluster import (
    TestbedConfig,
    build_gluster_testbed,
    build_lustre_testbed,
    build_nfs_testbed,
    scaled,
)
from repro.core.config import IMCaConfig
from repro.faults import FaultSchedule
from repro.obs.context import Observability
from repro.util import GiB, KiB, MiB


def test_config_validation():
    with pytest.raises(ValueError):
        TestbedConfig(num_clients=0)
    with pytest.raises(ValueError):
        TestbedConfig(num_mcds=-1)


def test_scaled_copies_with_overrides():
    base = TestbedConfig(num_clients=4)
    derived = scaled(base, num_clients=8, num_mcds=2)
    assert derived.num_clients == 8
    assert derived.num_mcds == 2
    assert base.num_clients == 4  # original untouched


def test_gluster_testbed_shape():
    tb = build_gluster_testbed(TestbedConfig(num_clients=3, num_mcds=2))
    assert len(tb.clients) == 3
    assert len(tb.mcds) == 2
    assert len(tb.servers) == 1
    assert all(cm is not None for cm in tb.cmcaches)
    assert tb.smcaches[0] is not None


def test_gluster_testbed_nocache_has_no_imca():
    tb = build_gluster_testbed(TestbedConfig(num_clients=2))
    assert tb.mcds == []
    assert all(cm is None for cm in tb.cmcaches)
    assert tb.smcaches == [None]


def test_mcd_transport_separate_network():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=1, mcd_transport="ib-rdma")
    )
    cm = tb.cmcaches[0]
    assert cm.mc.endpoint.net is not tb.net
    assert cm.mc.endpoint.net.transport.name == "ib-rdma"
    # FS traffic stays on the primary fabric.
    assert tb.net.transport.name == "ipoib"


def test_mcd_transport_default_shares_network():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1))
    assert tb.cmcaches[0].mc.endpoint.net is tb.net


def test_lustre_testbed_shape():
    tb = build_lustre_testbed(TestbedConfig(num_clients=2, num_data_servers=4))
    assert len(tb.osts) == 4
    assert len(tb.clients) == 2
    assert tb.mds is not None
    assert tb.clients[0].layout.count == 4


def test_nfs_testbed_shape():
    tb = build_nfs_testbed(TestbedConfig(num_clients=2, transport="gige"))
    assert len(tb.clients) == 2
    assert tb.net.transport.name == "gige"


def test_mcd_stats_aggregation():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=3))
    for i, mcd in enumerate(tb.mcds):
        mcd.engine.set(f"key{i}", None, 100)
    stats = tb.mcd_stats()
    assert stats["curr_items"] == 3
    assert stats["limit_maxbytes"] == 3 * 6 * GiB


def test_imca_selector_flows_to_clients():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=2, imca=IMCaConfig(selector="ketama"))
    )
    assert tb.cmcaches[0].mc.selector.name == "ketama"
    assert tb.smcaches[0].mc.selector.name == "ketama"


def test_imca_replicas_flow_to_clients():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=2, num_mcds=3, imca=IMCaConfig(replicas=2))
    )
    for mc in [cm.mc for cm in tb.cmcaches] + [sm.mc for sm in tb.smcaches]:
        assert mc.replicas == 2
        assert mc._replication is not None
    # Round-robin seeds are staggered so readers don't stampede the
    # same replica first.
    seeds = {sm.mc._rr for sm in tb.smcaches} | {cm.mc._rr for cm in tb.cmcaches}
    assert len(seeds) == len(tb.smcaches) + len(tb.cmcaches)


def test_replicas_default_off():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=2))
    assert tb.cmcaches[0].mc._replication is None


def test_config_rejects_more_replicas_than_mcds():
    with pytest.raises(ValueError):
        TestbedConfig(num_clients=1, num_mcds=2, imca=IMCaConfig(replicas=3))


def test_mcclient_stats_surface_replica_counters():
    tb = build_gluster_testbed(
        TestbedConfig(num_clients=1, num_mcds=3, imca=IMCaConfig(replicas=2))
    )
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB)
        for _ in range(4):
            yield from c.read(fd, 0, 4 * KiB)

    p = tb.sim.process(w())
    tb.sim.run()
    stats = tb.mcclient_stats()
    assert stats.get("replica_writes", 0) > 0
    assert stats.get("replica_reads", 0) > 0
    snap = tb.snapshot_metrics().snapshot()
    assert snap["mcclient"]["counters"]["replica_writes"] > 0


def test_elastic_config_validation():
    """The resize controller refuses, at first use, a bank it cannot
    resize; there is no knob to refuse at config time."""
    with pytest.raises(TypeError):
        TestbedConfig(num_mcds=2, elastic=True)
    tb = build_gluster_testbed(TestbedConfig(num_mcds=0))
    assert tb.membership is None and tb.all_mcds() == []
    with pytest.raises(ValueError, match="num_mcds >= 1"):
        tb.elastic  # nothing to resize
    tb = build_gluster_testbed(
        TestbedConfig(num_mcds=3, imca=IMCaConfig(replicas=2))
    )
    with pytest.raises(ValueError, match="replicas == 1"):
        tb.elastic  # membership replaces replication, not composes with it
    with pytest.raises(ValueError, match="replicas == 1"):
        tb.arm_faults(FaultSchedule().mcd_add(0.0, warm_for=0.01))
    tb.arm_faults(FaultSchedule().mcd_crash(0.0, mcd=0, down_for=0.01))  # no resize: fine


def test_elastic_testbed_wiring():
    tb = build_gluster_testbed(TestbedConfig(num_mcds=2))
    assert tb.membership.ring_ids == (0, 1)
    assert all(cm.mc.membership is tb.membership for cm in tb.cmcaches)
    # all_mcds follows membership growth; the frozen list does not
    nid = tb.elastic.add(window=0.001)
    tb.sim.run()
    assert len(tb.all_mcds()) == 3
    assert len(tb.mcds) == 2
    assert tb.all_mcds()[nid] is tb.membership.members[nid].daemon


def test_default_testbed_is_the_static_membership_and_builds_no_controller():
    obs = Observability()
    tb = build_gluster_testbed(TestbedConfig(num_clients=2, num_mcds=3), obs=obs)
    ms = tb.membership
    assert (ms.epoch, ms.windows, ms.ring_ids) == (0, [], (0, 1, 2))
    assert tb.all_mcds() == tb.mcds
    for mc in [cm.mc for cm in tb.cmcaches] + [sm.mc for sm in tb.smcaches]:
        assert mc.membership is ms and mc.servers == tb.mcds

    def resize_plumbing():
        return ("mcd-ops" in tb.net._nics, "elastic" in obs.registry.components)

    # Running, arming non-membership faults and exporting metrics never
    # bring the resize controller into existence...
    c = tb.clients[0]

    def w():
        fd = yield from c.create("/f")
        yield from c.write(fd, 0, 4 * KiB)
        yield from c.read(fd, 0, 4 * KiB)

    tb.arm_faults(FaultSchedule().mcd_crash(1.0, mcd=1, down_for=0.01))
    tb.sim.process(w())
    tb.sim.run()
    tb.snapshot_metrics()
    assert resize_plumbing() == (False, False)
    assert ms.epoch == 0
    # ...the first use of ``tb.elastic`` does.
    nid = tb.elastic.add(window=0.001)
    tb.sim.run()
    assert resize_plumbing() == (True, True)
    assert ms.ring_ids == (0, 1, 2, nid)
