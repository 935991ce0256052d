"""Sampler behaviour: cadence, drain detection, opt-in wiring."""

import pytest

from repro.cluster import TestbedConfig, build_gluster_testbed
from repro.obs import Observability
from repro.obs.registry import ComponentMetrics
from repro.obs.samplers import Sampler, gluster_probes
from repro.sim.core import Simulator


def test_sampler_records_at_interval():
    sim = Simulator()
    metrics = ComponentMetrics("samples")
    value = {"v": 0.0}

    def workload():
        for _ in range(10):
            value["v"] += 1.0
            yield sim.timeout(1.0)

    sim.process(workload(), name="wl")
    sampler = Sampler(sim, metrics, [("v", lambda: value["v"])], interval=2.0)
    sim.run()

    points = metrics.series["v"]
    assert points[0][0] == 0.0
    times = [t for t, _ in points]
    assert times == sorted(times)
    assert all(b - a == pytest.approx(2.0) for a, b in zip(times, times[1:]))
    # Values track the workload as it advances.
    assert points[-1][1] > points[0][1]


def test_sampler_stops_when_heap_drains():
    sim = Simulator()
    metrics = ComponentMetrics("samples")

    def workload():
        yield sim.timeout(5.0)

    sim.process(workload(), name="wl")
    sampler = Sampler(sim, metrics, [("c", lambda: 1.0)], interval=1.0)
    sim.run()

    # Without drain detection the sampler would tick to MAX_SAMPLES and
    # drag sim.now out with it.  It must stop shortly after the workload.
    assert sampler.ticks <= 7
    assert sim.now <= 7.0


def test_sampler_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        Sampler(sim, ComponentMetrics("s"), [], interval=0)


def test_sampler_respects_stop():
    sim = Simulator()
    metrics = ComponentMetrics("samples")

    def workload():
        yield sim.timeout(10.0)

    sim.process(workload(), name="wl")
    sampler = Sampler(sim, metrics, [("c", lambda: 1.0)], interval=1.0)

    def stopper():
        yield sim.timeout(3.5)
        sampler.stop()

    sim.process(stopper(), name="stop")
    sim.run()
    assert sampler.ticks == 4  # t=0,1,2,3 then stopped


def test_testbed_sampler_is_opt_in():
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1))
    assert tb.obs.samplers == []

    obs = Observability("s", sample_interval=0.005)
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1), obs=obs)
    assert len(obs.samplers) == 1

    def wl():
        fd = yield from tb.clients[0].create("/f")
        yield from tb.clients[0].write(fd, 0, 65536)
        yield from tb.clients[0].close(fd)

    tb.sim.process(wl(), name="wl")
    tb.sim.run()
    series = obs.registry.component("samples").series
    assert series, "expected sampled series from the default probe set"
    assert any(name.endswith("nic.rx.util") for name in series)
    assert any(name.endswith("mem.bytes") for name in series)


def test_gluster_probes_are_all_callable():
    # Probes are attached only to a sampled (so observed) testbed: an
    # unobserved station books no busy time to report.
    obs = Observability("s", sample_interval=0.005)
    tb = build_gluster_testbed(TestbedConfig(num_clients=1, num_mcds=1), obs=obs)
    probes = gluster_probes(tb)
    assert probes
    for name, probe in probes:
        assert isinstance(float(probe()), float), name
