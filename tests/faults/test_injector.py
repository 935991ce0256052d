"""Tests for the fault injector: timing, recovery semantics, logging."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.faults import FaultInjector, FaultSchedule
from repro.net import IPOIB, Network, Node
from repro.sim import Simulator
from repro.storage.disk import Disk


def make_tb(num_mcds=1):
    return build_gluster_testbed(TestbedConfig(num_mcds=num_mcds))


def test_validation_rejects_missing_targets():
    tb = make_tb(num_mcds=1)
    with pytest.raises(ValueError):
        tb.arm_faults(FaultSchedule().mcd_crash(0.0, mcd=5, down_for=0.01))
    sim = Simulator()
    inj = FaultInjector(sim)  # no handles at all
    with pytest.raises(ValueError):
        inj.arm(FaultSchedule().link_degrade(0.0, "x", for_=0.01))
    with pytest.raises(ValueError):
        inj.arm(FaultSchedule().server_flap(0.0, server=0, down_for=0.01))
    with pytest.raises(ValueError):
        inj.arm(FaultSchedule().slow_disk(0.0, disk=0, for_=0.01))


def test_mcd_crash_and_cold_restart_timing():
    tb = make_tb(num_mcds=1)
    sim, mcd = tb.sim, tb.mcds[0]
    mcd.engine.set("k", b"v", 2)
    tb.arm_faults(FaultSchedule().mcd_crash(0.002, mcd=0, down_for=0.003))

    sim.run(until=0.0025)
    assert not mcd.node.alive
    assert mcd.crashes == 1
    sim.run(until=0.006)
    assert mcd.node.alive
    assert mcd.restarts == 1
    # Cold restart: nothing survives the crash.
    assert mcd.engine.get("k") is None


def test_server_flap_recovers_with_storage_intact():
    tb = make_tb(num_mcds=0)
    sim = tb.sim
    tb.arm_faults(FaultSchedule().server_flap(0.001, server=0, down_for=0.002))
    sim.run(until=0.002)
    assert not tb.server.node.alive
    sim.run(until=0.004)
    assert tb.server.node.alive


def test_slow_disk_applies_and_clears_multiplier():
    sim = Simulator()
    disk = Disk(sim)
    inj = FaultInjector(sim, disks=[disk])
    inj.arm(FaultSchedule().slow_disk(0.01, disk=0, for_=0.02, slowdown=4.0))
    sim.run(until=0.02)
    assert disk.slowdown == 4.0
    sim.run()
    assert disk.slowdown == 1.0


def test_link_degrade_adds_latency_then_restores():
    sim = Simulator()
    net = Network(sim, IPOIB)
    a, b = Node(sim, "a"), Node(sim, "b")
    net.attach(a)
    net.attach(b)
    inj = FaultInjector(sim, net=net)
    inj.arm(
        FaultSchedule().link_degrade(0.0, "b", for_=0.01, extra_latency=1e-3)
    )
    arrivals = []

    def ping(at):
        yield sim.timeout(at - sim.now)
        t0 = sim.now
        yield net.transfer(a, b, 64)
        arrivals.append(sim.now - t0)

    sim.process(ping(0.005))   # during the episode
    sim.process(ping(0.02))    # after restore
    sim.run()
    assert arrivals[0] > 1e-3          # impaired: the extra ms dominates
    assert arrivals[1] < 1e-3          # healthy IPoIB latency again
    assert net.impairment("b") is None


def test_log_records_transitions_in_time_order():
    tb = make_tb(num_mcds=2)
    sim = tb.sim
    sched = (
        FaultSchedule()
        .mcd_crash(0.001, mcd=0, down_for=0.004)
        .mcd_crash(0.002, mcd=1, down_for=0.001)
    )
    inj = tb.arm_faults(sched)
    sim.run()
    times = [t for t, _, _, _ in inj.log]
    assert times == sorted(times)
    assert [(a, tgt) for _, a, _, tgt in inj.log] == [
        ("inject", 0), ("inject", 1), ("recover", 1), ("recover", 0),
    ]
    assert inj.active == 0


def test_shifted_schedule_arms_relative_to_now():
    tb = make_tb(num_mcds=1)
    sim = tb.sim
    sim.run(until=0.005)
    inj = tb.arm_faults(FaultSchedule().mcd_crash(0.001, mcd=0, down_for=0.001).shifted(sim.now))
    sim.run()
    assert inj.log[0][0] == pytest.approx(0.006)
    assert inj.log[1][0] == pytest.approx(0.007)


# --------------------------------------------------------------------------- #
# Membership events (every testbed with MCDs is resizable)
# --------------------------------------------------------------------------- #
def test_membership_events_require_elastic_controller():
    inj = FaultInjector(Simulator())  # a bare injector has no controller
    with pytest.raises(ValueError):
        inj.arm(FaultSchedule().mcd_add(0.0, warm_for=0.01))
    tb = make_tb(num_mcds=0)  # and a testbed without MCDs cannot build one
    with pytest.raises(ValueError):
        tb.arm_faults(FaultSchedule().mcd_add(0.0, warm_for=0.01))
    with pytest.raises(ValueError):
        tb.arm_faults(FaultSchedule().mcd_remove(0.0, mcd=0))


def test_membership_targets_validated_against_membership():
    tb = make_tb(num_mcds=2)
    with pytest.raises(ValueError):
        tb.arm_faults(FaultSchedule().mcd_drain(0.0, mcd=9, drain_for=0.01))
    with pytest.raises(ValueError):
        tb.arm_faults(FaultSchedule().mcd_remove(0.0, mcd=9))


def test_mcd_add_logs_allocated_node_id():
    tb = make_tb(num_mcds=2)
    inj = tb.arm_faults(FaultSchedule().mcd_add(0.001, warm_for=0.002))
    tb.sim.run()
    transitions = [(a, k, t) for _, a, k, t in inj.log]
    assert transitions == [
        ("inject", "mcd-add", 2),
        ("recover", "mcd-add", 2),
    ]
    assert tb.membership.members[2].state == "live"
    assert inj.active == 0


def test_mcd_remove_logs_single_transition():
    tb = make_tb(num_mcds=3)
    inj = tb.arm_faults(FaultSchedule().mcd_remove(0.001, mcd=2))
    tb.sim.run()
    assert [(a, k, t) for _, a, k, t in inj.log] == [("inject", "mcd-remove", 2)]
    assert inj.active == 0  # permanent faults never pin the active count
    assert tb.membership.members[2].state == "detached"


def test_mcd_drain_injects_and_marks_window_close():
    tb = make_tb(num_mcds=3)
    inj = tb.arm_faults(FaultSchedule().mcd_drain(0.001, mcd=1, drain_for=0.002))
    sim = tb.sim
    sim.run(until=0.002)
    assert tb.membership.members[1].state == "draining"
    assert 1 not in tb.membership.ring_ids
    sim.run()
    assert [(a, k) for _, a, k, _ in inj.log] == [
        ("inject", "mcd-drain"),
        ("recover", "mcd-drain"),
    ]
    assert tb.membership.members[1].state == "detached"


def test_membership_composes_with_crashes_on_one_timeline():
    tb = make_tb(num_mcds=3)
    sched = (
        FaultSchedule()
        .mcd_crash(0.001, mcd=0, down_for=0.002)
        .mcd_add(0.002, warm_for=0.002)
    )
    inj = tb.arm_faults(sched)
    tb.sim.run()
    kinds = [k for _, _, k, _ in inj.log]
    assert kinds.count("mcd-crash") == 2 and kinds.count("mcd-add") == 2
    assert tb.membership.members[3].state == "live"
