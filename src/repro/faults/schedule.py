"""Fault schedules: what fails, when, and for how long.

A schedule is pure data — no simulator state — so it can be built once,
serialised to JSON, shifted in time (schedules are usually authored
relative to the start of a measured phase), fingerprinted for
determinism checks, and replayed exactly by a
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.sim.rand import RandomStreams

#: Fault kinds the injector understands.
MCD_CRASH = "mcd-crash"
SERVER_FLAP = "server-flap"
LINK_DEGRADE = "link-degrade"
SLOW_DISK = "slow-disk"
#: Elastic membership changes (need an injector armed with an
#: ElasticController).  ``mcd-add`` grows the tier (target is always -1
#: — the controller allocates the new node id); ``mcd-drain`` retires a
#: node gracefully over a ``duration``-long forwarding window;
#: ``mcd-remove`` detaches it instantly, crash-style.
MCD_ADD = "mcd-add"
MCD_REMOVE = "mcd-remove"
MCD_DRAIN = "mcd-drain"

FAULT_KINDS = (MCD_CRASH, SERVER_FLAP, LINK_DEGRADE, SLOW_DISK, MCD_ADD, MCD_REMOVE, MCD_DRAIN)
MEMBERSHIP_KINDS = (MCD_ADD, MCD_REMOVE, MCD_DRAIN)
#: Kinds after which the target MCD no longer exists.
_TERMINAL_KINDS = (MCD_REMOVE, MCD_DRAIN)
#: Kinds that act on one MCD and therefore conflict-check against each
#: other on a shared target (an id is one id across crash and removal).
_MCD_KINDS = (MCD_CRASH, MCD_REMOVE, MCD_DRAIN)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One failure episode: a target breaks at ``at`` and recovers
    ``duration`` seconds later.

    ``target`` is an index into the injector's component list for
    crash/flap/disk faults, or a node *name* for link degradation.
    """

    at: float
    kind: str
    target: Union[int, str]
    duration: float
    #: link-degrade: added one-way wire latency / per-message drop prob.
    extra_latency: float = 0.0
    loss_prob: float = 0.0
    #: slow-disk: service-time multiplier during the episode.
    slowdown: float = 1.0
    #: mcd-add/mcd-drain: background-migrate the remapped keys during
    #: the forwarding window instead of relying on demand backfill only.
    migrate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0: {self.at}")
        if self.kind == MCD_REMOVE:
            # An unplanned removal is instantaneous: no recovery window.
            if self.duration != 0.0:
                raise ValueError(f"mcd-remove duration must be 0: {self.duration}")
        elif self.duration <= 0:
            raise ValueError(f"fault duration must be > 0: {self.duration}")
        if self.kind == MCD_ADD:
            if self.target != -1:
                raise ValueError(
                    "mcd-add allocates its own node id; use target=-1"
                )
        elif self.migrate:
            if self.kind != MCD_DRAIN:
                raise ValueError(f"migrate only applies to mcd-add/mcd-drain, not {self.kind!r}")
        if self.extra_latency < 0:
            raise ValueError(f"extra_latency must be >= 0: {self.extra_latency}")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"loss_prob must be in [0, 1]: {self.loss_prob}")
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1.0: {self.slowdown}")

    @property
    def until(self) -> float:
        return self.at + self.duration

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultEvent":
        return cls(**doc)


@dataclass
class FaultSchedule:
    """A sorted collection of :class:`FaultEvent`\\ s."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: FaultEvent, *, validate: bool = True) -> "FaultSchedule":
        """Append *event*, rejecting combinations the injector could not
        replay unambiguously (see :meth:`_conflict`).  ``validate=False``
        appends raw: :func:`random_schedule` uses it, since its draws
        skip same-kind overlaps on a target themselves and any other mix
        is the caller's choice of ``kinds``.
        """
        if validate:
            for other in self.events:
                problem = self._conflict(other, event)
                if problem:
                    raise ValueError(f"conflicting fault events: {problem}")
        self.events.append(event)
        self.events.sort()
        return self

    @staticmethod
    def _conflict(a: FaultEvent, b: FaultEvent) -> Optional[str]:
        """Why *a* and *b* cannot coexist, or None.

        Overlapping same-kind windows on one target would make the
        transition log ambiguous (the injector would recover a target
        that another episode still holds down); any MCD-scoped event on
        an already drained/removed id targets a node that no longer
        exists.  ``mcd-add`` is exempt from same-target checks: its -1
        target is a placeholder, every add creates a distinct node.
        """
        if a.target != b.target:
            return None
        if a.kind == MCD_ADD or b.kind == MCD_ADD:
            return None
        first, second = (a, b) if (a.at, a.until) <= (b.at, b.until) else (b, a)
        if a.kind in _MCD_KINDS and b.kind in _MCD_KINDS:
            if first.kind in _TERMINAL_KINDS and second.kind in _TERMINAL_KINDS:
                return (
                    f"{second.kind}@{second.at} targets MCD {second.target}, "
                    f"already gone after {first.kind}@{first.at}"
                )
            if first.kind in _TERMINAL_KINDS and second.at >= first.at:
                return (
                    f"{second.kind}@{second.at} targets MCD {second.target}, "
                    f"already gone after {first.kind}@{first.at}"
                )
            if second.kind in _TERMINAL_KINDS and first.kind == MCD_CRASH and second.at < first.until:
                return (
                    f"{second.kind}@{second.at} of MCD {second.target} inside "
                    f"{first.kind}@{first.at}'s down window (until {first.until})"
                )
        if a.kind == b.kind and first.until > second.at:
            return (
                f"overlapping {a.kind} windows on target {a.target!r}: "
                f"[{first.at}, {first.until}) and [{second.at}, {second.until})"
            )
        return None

    # -- builders (chainable) ---------------------------------------------
    def mcd_crash(self, at: float, mcd: int = 0, down_for: float = 0.01) -> "FaultSchedule":
        """Crash MCD *mcd* at *at*; cold restart after *down_for*."""
        return self.add(FaultEvent(at, MCD_CRASH, mcd, down_for))

    def server_flap(self, at: float, server: int = 0, down_for: float = 0.01) -> "FaultSchedule":
        """Fail brick server *server*; recover (storage intact) later."""
        return self.add(FaultEvent(at, SERVER_FLAP, server, down_for))

    def link_degrade(
        self,
        at: float,
        node: str,
        for_: float = 0.01,
        extra_latency: float = 0.0,
        loss_prob: float = 0.0,
    ) -> "FaultSchedule":
        """Impair all traffic touching *node* (by name) for a while."""
        return self.add(
            FaultEvent(
                at, LINK_DEGRADE, node, for_,
                extra_latency=extra_latency, loss_prob=loss_prob,
            )
        )

    def slow_disk(
        self, at: float, disk: int = 0, for_: float = 0.01, slowdown: float = 4.0
    ) -> "FaultSchedule":
        """Multiply disk *disk*'s service times during the episode."""
        return self.add(FaultEvent(at, SLOW_DISK, disk, for_, slowdown=slowdown))

    def mcd_add(
        self, at: float, warm_for: float = 0.005, migrate: bool = False
    ) -> "FaultSchedule":
        """Grow the MCD tier by one node at *at*; the forwarding window
        (demand backfill, write fan-out to both owners) stays open for
        *warm_for* seconds.  ``migrate`` also background-copies the
        remapped keys off their old owners."""
        return self.add(FaultEvent(at, MCD_ADD, -1, warm_for, migrate=migrate))

    def mcd_drain(
        self, at: float, mcd: int = 0, drain_for: float = 0.005, migrate: bool = False
    ) -> "FaultSchedule":
        """Gracefully retire MCD *mcd*: out of the key ring immediately,
        forwarding/migration source for *drain_for* seconds, then
        detached."""
        return self.add(FaultEvent(at, MCD_DRAIN, mcd, drain_for, migrate=migrate))

    def mcd_remove(self, at: float, mcd: int = 0) -> "FaultSchedule":
        """Unplanned removal of MCD *mcd*: instant detach, contents
        lost — degrades like a crash that never restarts."""
        return self.add(FaultEvent(at, MCD_REMOVE, mcd, 0.0))

    # -- transforms --------------------------------------------------------
    def shifted(self, dt: float) -> "FaultSchedule":
        """A copy with every event moved *dt* seconds later — schedules
        are authored relative to a measured phase's start."""
        return FaultSchedule([replace(ev, at=ev.at + dt) for ev in self.events])

    # -- serialisation -----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            [ev.to_dict() for ev in self.events], sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls([FaultEvent.from_dict(doc) for doc in json.loads(text)])

    def fingerprint(self) -> str:
        """Stable content hash (schedule identity for determinism checks)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def random_schedule(
    seed: int,
    horizon: float,
    *,
    rate: float,
    num_targets: int,
    kinds: Sequence[str] = (MCD_CRASH,),
    mean_downtime: float = 0.005,
    min_downtime: float = 1e-4,
    extra_latency: float = 0.0,
    loss_prob: float = 0.0,
    slowdown: float = 4.0,
    link_nodes: Optional[Sequence[str]] = None,
) -> FaultSchedule:
    """Draw a Poisson fault process over ``[0, horizon)``.

    ``rate`` is expected failures per simulated second (summed over all
    targets); downtimes are exponential with ``mean_downtime``, floored
    at ``min_downtime``.  Draws come from the dedicated ``"faults"``
    stream of :class:`~repro.sim.rand.RandomStreams`, so the same seed
    always produces the same schedule regardless of any other stream
    usage.  An arrival whose target is still down from an earlier draw
    of the same kind is skipped — overlapping windows on one target
    would otherwise recover it early.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0: {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0: {horizon}")
    if num_targets < 1 and any(k != LINK_DEGRADE for k in kinds):
        raise ValueError("num_targets must be >= 1")
    for k in kinds:
        if k not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {k!r}")
    if LINK_DEGRADE in kinds and not link_nodes:
        raise ValueError("link-degrade kinds need link_nodes")

    schedule = FaultSchedule()
    if rate == 0:
        return schedule
    rng = RandomStreams(seed).stream("faults")
    busy_until: dict[tuple[str, Union[int, str]], float] = {}
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            break
        kind = kinds[int(rng.integers(len(kinds)))]
        target: Union[int, str]
        if kind == LINK_DEGRADE:
            target = link_nodes[int(rng.integers(len(link_nodes)))]
        else:
            target = int(rng.integers(num_targets))
        duration = max(min_downtime, float(rng.exponential(mean_downtime)))
        if busy_until.get((kind, target), -1.0) > t:
            continue
        busy_until[(kind, target)] = t + duration
        # validate=False: the skip above already keeps same-kind
        # windows on one target apart.
        if kind == LINK_DEGRADE:
            schedule.add(
                FaultEvent(
                    t, kind, target, duration,
                    extra_latency=extra_latency, loss_prob=loss_prob,
                ),
                validate=False,
            )
        elif kind == SLOW_DISK:
            schedule.add(FaultEvent(t, kind, target, duration, slowdown=slowdown), validate=False)
        else:
            schedule.add(FaultEvent(t, kind, target, duration), validate=False)
    return schedule
