"""The fault injector: replays a schedule against live components.

Each :class:`~repro.faults.schedule.FaultEvent` becomes one simulator
process — wait until ``at``, apply the fault, wait ``duration``,
recover — so faults interleave with the workload purely through the
event heap and the whole run stays deterministic.

Recovery semantics per kind:

* ``mcd-crash``    — ``MemcachedDaemon.kill()`` then ``restart()``:
  the node revives with a **fresh engine** (provably cold; no item,
  slab page, or CAS value survives).
* ``server-flap``  — ``Node.fail()`` / ``Node.recover()`` on a brick
  server: RPCs error while down; on-disk state is durable, so nothing
  is lost — exactly the paper's "writes are server-first" argument.
* ``link-degrade`` — :meth:`Network.degrade` / :meth:`Network.restore`
  around one node: added wire latency and/or message loss.
* ``slow-disk``    — a service-time multiplier on one spindle (an
  array member rebuilding or retrying sectors), then back to 1.0.

Membership events (need an :class:`ElasticController` handle):

* ``mcd-add``      — grow the tier at ``at``; "recover" marks the
  forwarding window's scheduled close (the new node is warm/live).
* ``mcd-drain``    — planned removal: out of the ring at ``at``,
  detached when the window closes.
* ``mcd-remove``   — unplanned removal: instant detach, no recovery —
  the log records a single ``inject`` transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    LINK_DEGRADE,
    MCD_ADD,
    MCD_CRASH,
    MCD_DRAIN,
    MCD_REMOVE,
    MEMBERSHIP_KINDS,
    SERVER_FLAP,
    SLOW_DISK,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.memcached.daemon import MemcachedDaemon
    from repro.memcached.membership import ElasticController
    from repro.net.fabric import Network, Node
    from repro.obs.oplog import OpLog
    from repro.obs.registry import ComponentMetrics
    from repro.sim.core import Simulator
    from repro.storage.disk import Disk


class FaultInjector:
    """Arms :class:`FaultSchedule`\\ s against a set of components.

    The injector is testbed-agnostic: it holds plain lists of the
    things that can fail.  ``GlusterTestbed.arm_faults`` wires one up
    with the right handles.  ``log`` records every applied transition
    as ``(time, action, kind, target)`` tuples in simulation order —
    the determinism tests hash it.
    """

    def __init__(
        self,
        sim: "Simulator",
        *,
        mcds: Sequence["MemcachedDaemon"] = (),
        server_nodes: Sequence["Node"] = (),
        net: Optional["Network"] = None,
        disks: Sequence["Disk"] = (),
        metrics: Optional["ComponentMetrics"] = None,
        oplog: Optional["OpLog"] = None,
        elastic: Optional["ElasticController"] = None,
    ) -> None:
        self.sim = sim
        self.mcds = list(mcds)
        self.server_nodes = list(server_nodes)
        self.net = net
        self.disks = list(disks)
        self.elastic = elastic
        self.metrics = metrics
        #: Op-lifecycle log whose ``degraded_mcds`` set we maintain, so
        #: records capture the injector's ground truth at op start.
        self.oplog = oplog
        #: (sim time, "inject"/"recover", kind, target) in event order.
        self.log: list[tuple[float, str, str, object]] = []
        #: Currently-active fault count (sampled into metrics).
        self.active = 0

    # -- arming -----------------------------------------------------------
    def arm(self, schedule: FaultSchedule) -> "FaultInjector":
        """Spawn one process per event; returns self for chaining."""
        for ev in schedule:
            self._validate(ev)
            self.sim.process(self._episode(ev), name=f"fault.{ev.kind}.{ev.target}")
        return self

    def _validate(self, ev: FaultEvent) -> None:
        if ev.kind == MCD_CRASH:
            if not 0 <= int(ev.target) < len(self.mcds):
                raise ValueError(f"no MCD {ev.target} (have {len(self.mcds)})")
        elif ev.kind == SERVER_FLAP:
            if not 0 <= int(ev.target) < len(self.server_nodes):
                raise ValueError(
                    f"no server {ev.target} (have {len(self.server_nodes)})"
                )
        elif ev.kind == SLOW_DISK:
            if not 0 <= int(ev.target) < len(self.disks):
                raise ValueError(f"no disk {ev.target} (have {len(self.disks)})")
        elif ev.kind == LINK_DEGRADE:
            if self.net is None:
                raise ValueError("link-degrade needs a network handle")
        elif ev.kind in MEMBERSHIP_KINDS:
            if self.elastic is None:
                raise ValueError(
                    f"{ev.kind} needs an elastic membership controller "
                    "(GlusterTestbed.arm_faults passes the testbed's)"
                )
            if ev.kind in (MCD_DRAIN, MCD_REMOVE):
                if not self.elastic.membership.reachable(int(ev.target)):
                    raise ValueError(
                        f"no attached MCD {ev.target} to {ev.kind.split('-')[1]}"
                    )

    # -- the episode process ----------------------------------------------
    def _episode(self, ev: FaultEvent):
        sim = self.sim
        delay = ev.at - sim.now
        if delay > 0:
            yield sim.timeout(delay)
        if ev.kind == MCD_ADD:
            # Handled inline: both transitions log the *allocated* node
            # id, not the -1 placeholder the schedule carries.
            nid = self.elastic.add(window=ev.duration, migrate=ev.migrate)
            self.active += 1
            self._record_raw("inject", ev.kind, nid)
            yield sim.timeout(ev.duration)
            self.active -= 1
            self._record_raw("recover", ev.kind, nid)
            return
        self._apply(ev)
        if ev.kind == MCD_REMOVE:
            # Nothing recovers: the node is gone.  One log transition.
            return
        yield sim.timeout(ev.duration)
        self._recover(ev)

    def _record(self, action: str, ev: FaultEvent) -> None:
        self._record_raw(action, ev.kind, ev.target)

    def _record_raw(self, action: str, kind: str, target: object) -> None:
        self.log.append((self.sim.now, action, kind, target))
        if self.metrics is not None:
            self.metrics.inc(f"{kind}.{action}")
            self.metrics.sample("active_faults", self.sim.now, float(self.active))

    def _apply(self, ev: FaultEvent) -> None:
        if ev.kind == MCD_CRASH:
            self.mcds[int(ev.target)].kill()
            if self.oplog is not None:
                self.oplog.degraded_mcds.add(int(ev.target))
        elif ev.kind == SERVER_FLAP:
            self.server_nodes[int(ev.target)].fail()
        elif ev.kind == LINK_DEGRADE:
            self.net.degrade(
                str(ev.target),
                extra_latency=ev.extra_latency,
                loss_prob=ev.loss_prob,
            )
        elif ev.kind == SLOW_DISK:
            self.disks[int(ev.target)].set_slowdown(ev.slowdown)
        elif ev.kind == MCD_DRAIN:
            self.elastic.drain(int(ev.target), window=ev.duration, migrate=ev.migrate)
        elif ev.kind == MCD_REMOVE:
            self.elastic.remove(int(ev.target))
            # Permanent: record the one transition without bumping the
            # active count — there is no episode to recover from.
            self._record("inject", ev)
            return
        self.active += 1
        self._record("inject", ev)

    def _recover(self, ev: FaultEvent) -> None:
        if ev.kind == MCD_CRASH:
            self.mcds[int(ev.target)].restart()
            if self.oplog is not None:
                self.oplog.degraded_mcds.discard(int(ev.target))
        elif ev.kind == SERVER_FLAP:
            self.server_nodes[int(ev.target)].recover()
        elif ev.kind == LINK_DEGRADE:
            self.net.restore(str(ev.target))
        elif ev.kind == SLOW_DISK:
            self.disks[int(ev.target)].set_slowdown(1.0)
        # MCD_ADD / MCD_DRAIN: the controller settles the window itself;
        # "recover" here just marks the scheduled close in the log.
        self.active -= 1
        self._record("recover", ev)
