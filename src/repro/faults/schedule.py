"""Declarative, seeded fault schedules.

A :class:`FaultSchedule` lists everything that will go wrong during one
marching transition, with every instant expressed as a *mission
fraction* in ``[0, 1)`` - the fraction of the currently executing plan
still ahead is rescaled after each recovery, so a schedule remains
meaningful across replans.  Schedules are plain frozen data: building
one never touches an RNG unless a builder is asked to randomise, and
then only through its explicit ``seed``, so a given schedule reproduces
the exact same run.

The archetype builders cover the regimes the related work treats as
primary (Varadharajan et al., Majcherczyk et al.): a single crash, a
clustered crash (a whole neighbourhood dies at once - the case that can
cut the survivor network), a cascade of crashes at multiple instants,
stuck robots plus a crash, and a message storm where the recovery
consensus itself runs over faulty links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.distributed.runtime import LinkFaults
from repro.errors import PlanningError

__all__ = [
    "ARCHETYPES",
    "CrashFault",
    "FaultSchedule",
    "SlowFault",
    "StuckFault",
    "build_archetype_schedule",
    "random_schedule",
    "schedule_from_dict",
]


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise PlanningError(f"{name} must be a mission fraction in [0, 1), got {value}")


@dataclass(frozen=True)
class CrashFault:
    """Robots dying permanently at one instant.

    Attributes
    ----------
    at : float
        Mission fraction of the failure instant.
    robots : tuple[int, ...]
        Robot indices in the *original* numbering.  Ids that already
        died earlier in the schedule are skipped by the crash freeze
        step (:func:`repro.marching.replan.freeze_crash`);
        :func:`~repro.marching.replan.replan_after_failure` validates
        its own event sequences up front and rejects them instead.
    """

    at: float
    robots: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_fraction("crash time", self.at)
        object.__setattr__(self, "robots", tuple(int(i) for i in self.robots))
        if not self.robots:
            raise PlanningError("a crash fault needs at least one robot")
        if len(set(self.robots)) != len(self.robots):
            raise PlanningError("duplicate robot ids in crash fault")


@dataclass(frozen=True)
class StuckFault:
    """Robots that stop dead for a while (an actuator stall).

    The executor's policy is conservative: peers hold position until
    the stuck robots move again, so connectivity is untouched and the
    whole fault costs recovery *time*, not distance.

    Attributes
    ----------
    at : float
        Mission fraction at which the robots freeze.
    robots : tuple[int, ...]
    duration : float
        Hold length as a fraction of the nominal mission duration.
    """

    at: float
    robots: tuple[int, ...]
    duration: float

    def __post_init__(self) -> None:
        _check_fraction("stuck time", self.at)
        object.__setattr__(self, "robots", tuple(int(i) for i in self.robots))
        if not self.robots:
            raise PlanningError("a stuck fault needs at least one robot")
        if self.duration <= 0:
            raise PlanningError("stuck duration must be positive")


@dataclass(frozen=True)
class SlowFault:
    """Robots moving below nominal speed for a window.

    The synchronous march slows the whole swarm to the slowest member
    (Eqn. 2 keeps all arrivals simultaneous), so the fault dilates the
    window by ``1 / factor`` and costs recovery time.

    Attributes
    ----------
    at : float
    robots : tuple[int, ...]
    factor : float
        Speed multiplier in ``(0, 1]``.
    duration : float
        Window length as a fraction of the nominal mission duration.
    """

    at: float
    robots: tuple[int, ...]
    factor: float
    duration: float

    def __post_init__(self) -> None:
        _check_fraction("slow time", self.at)
        object.__setattr__(self, "robots", tuple(int(i) for i in self.robots))
        if not self.robots:
            raise PlanningError("a slow fault needs at least one robot")
        if not 0.0 < self.factor <= 1.0:
            raise PlanningError("slow factor must be in (0, 1]")
        if self.duration <= 0:
            raise PlanningError("slow duration must be positive")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong during one transition, declaratively.

    Attributes
    ----------
    seed : int
        Seed for every random process the schedule triggers (recovery
        consensus message faults); builders also derive their random
        choices from it.
    crashes, stucks, slows : tuples of faults
        Each ordered by strictly increasing ``at``; instants must be
        unique across *all* fault kinds so the executor has a total
        event order.
    comms : LinkFaults, optional
        Message-level faults applied to every recovery consensus the
        executor runs (loss, delay, duplication, per-edge loss).
    name : str
        Optional label carried into reports.
    """

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    stucks: tuple[StuckFault, ...] = ()
    slows: tuple[SlowFault, ...] = ()
    comms: LinkFaults | None = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stucks", tuple(self.stucks))
        object.__setattr__(self, "slows", tuple(self.slows))
        instants = [f.at for f in self.events()]
        if any(b <= a for a, b in zip(instants, instants[1:])):
            raise PlanningError(
                "fault instants must be unique and strictly increasing "
                f"across all kinds, got {instants}"
            )

    def events(self) -> tuple[Any, ...]:
        """All faults merged into one time-ordered tuple."""
        return tuple(
            sorted(
                [*self.crashes, *self.stucks, *self.slows],
                key=lambda f: f.at,
            )
        )

    @property
    def crashed_ids(self) -> tuple[int, ...]:
        """Every robot id some crash fault names, sorted."""
        ids: set[int] = set()
        for crash in self.crashes:
            ids.update(crash.robots)
        return tuple(sorted(ids))

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON description (for chaos summary documents)."""
        doc: dict[str, Any] = {
            "seed": self.seed,
            "name": self.name,
            "crashes": [
                {"at": c.at, "robots": list(c.robots)} for c in self.crashes
            ],
            "stucks": [
                {"at": s.at, "robots": list(s.robots), "duration": s.duration}
                for s in self.stucks
            ],
            "slows": [
                {
                    "at": s.at,
                    "robots": list(s.robots),
                    "factor": s.factor,
                    "duration": s.duration,
                }
                for s in self.slows
            ],
        }
        if self.comms is not None:
            doc["comms"] = {
                "loss_rate": self.comms.loss_rate,
                "delay_rate": self.comms.delay_rate,
                "max_delay": self.comms.max_delay,
                "duplication_rate": self.comms.duplication_rate,
            }
        return doc


def schedule_from_dict(data: dict[str, Any]) -> FaultSchedule:
    """Rebuild a :class:`FaultSchedule` from its :meth:`~FaultSchedule.to_dict`.

    This is the wire direction: mission requests carry their fault
    schedule as plain JSON, and the service reconstructs (and thereby
    re-validates) the schedule before running.

    Raises
    ------
    PlanningError
        On a malformed document or invalid fault parameters.
    """
    if not isinstance(data, dict):
        raise PlanningError("fault schedule document must be a JSON object")
    try:
        comms_doc = data.get("comms")
        comms = None if comms_doc is None else LinkFaults(
            loss_rate=float(comms_doc.get("loss_rate", 0.0)),
            delay_rate=float(comms_doc.get("delay_rate", 0.0)),
            max_delay=int(comms_doc.get("max_delay", 0)),
            duplication_rate=float(comms_doc.get("duplication_rate", 0.0)),
        )
        return FaultSchedule(
            seed=int(data.get("seed", 0)),
            crashes=tuple(
                CrashFault(
                    at=float(c["at"]),
                    robots=tuple(int(r) for r in c["robots"]),
                )
                for c in data.get("crashes", [])
            ),
            stucks=tuple(
                StuckFault(
                    at=float(s["at"]),
                    robots=tuple(int(r) for r in s["robots"]),
                    duration=float(s["duration"]),
                )
                for s in data.get("stucks", [])
            ),
            slows=tuple(
                SlowFault(
                    at=float(s["at"]),
                    robots=tuple(int(r) for r in s["robots"]),
                    factor=float(s["factor"]),
                    duration=float(s["duration"]),
                )
                for s in data.get("slows", [])
            ),
            name=str(data.get("name", "")),
            comms=comms,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanningError(f"malformed fault schedule document: {exc}") from exc


# ----------------------------------------------------------------------
# Archetype builders


ARCHETYPES = ("single", "cluster", "cascade", "stuck", "storm")


def _nearest_cluster(
    positions: np.ndarray, center: int, size: int
) -> tuple[int, ...]:
    """``center`` plus its ``size - 1`` nearest robots (deterministic)."""
    delta = positions - positions[center]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    order = np.lexsort((np.arange(len(positions)), dist))
    return tuple(int(i) for i in order[:size])


def build_archetype_schedule(
    archetype: str,
    positions: np.ndarray,
    seed: int = 0,
    name: str = "",
) -> FaultSchedule:
    """Instantiate one of the named fault regimes for a concrete swarm.

    Parameters
    ----------
    archetype : str
        One of :data:`ARCHETYPES`:

        * ``"single"`` - one robot dies mid-march.
        * ``"cluster"`` - a robot and its nearest neighbours die
          together (the case that can cut the survivor network).
        * ``"cascade"`` - three separate crash instants.
        * ``"stuck"`` - robots stall, then one crashes.
        * ``"storm"`` - cascading crashes while every recovery
          consensus runs over lossy, delaying, duplicating links.
    positions : (n, 2) ndarray
        Start positions (used to pick geometric clusters).
    seed : int
        Drives every random choice; same seed, same schedule.
    name : str
        Label for reports (defaults to the archetype).
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n < 6:
        raise PlanningError("archetype schedules need at least 6 robots")
    # str seeding is deterministic across processes (unlike tuple
    # seeding, which goes through the salted hash()).
    rng = random.Random(f"{seed}:{archetype}")
    pick = lambda: rng.randrange(n)  # noqa: E731
    label = name or archetype
    if archetype == "single":
        return FaultSchedule(
            seed=seed, name=label,
            crashes=(CrashFault(at=0.4, robots=(pick(),)),),
        )
    if archetype == "cluster":
        size = min(3 + rng.randrange(2), n // 4 + 1)
        cluster = _nearest_cluster(positions, pick(), max(size, 2))
        return FaultSchedule(
            seed=seed, name=label,
            crashes=(CrashFault(at=0.35, robots=cluster),),
        )
    if archetype == "cascade":
        crashes = []
        for at in (0.2, 0.45, 0.7):
            count = 1 + rng.randrange(2)
            picks = tuple(sorted({pick() for _ in range(count)}))
            crashes.append(CrashFault(at=at, robots=picks))
        return FaultSchedule(seed=seed, name=label, crashes=tuple(crashes))
    if archetype == "stuck":
        stuck = tuple(sorted({pick(), pick()}))
        return FaultSchedule(
            seed=seed, name=label,
            stucks=(StuckFault(at=0.25, robots=stuck, duration=0.15),),
            crashes=(CrashFault(at=0.6, robots=(pick(),)),),
        )
    if archetype == "storm":
        return FaultSchedule(
            seed=seed, name=label,
            crashes=(
                CrashFault(at=0.3, robots=(pick(),)),
                CrashFault(at=0.65, robots=(pick(),)),
            ),
            comms=LinkFaults(
                loss_rate=0.2,
                delay_rate=0.2,
                max_delay=2,
                duplication_rate=0.15,
            ),
        )
    raise PlanningError(
        f"unknown archetype {archetype!r}; expected one of {ARCHETYPES}"
    )


def random_schedule(
    robot_count: int,
    seed: int,
    max_events: int = 3,
    max_per_event: int = 4,
    comms: LinkFaults | None = None,
) -> FaultSchedule:
    """A fully random crash schedule (property-test workhorse).

    Crash instants are drawn uniformly and deduplicated; each event
    kills a random subset (which may overlap earlier events - the
    resilient executor treats re-deaths as no-ops).
    """
    if robot_count < 1:
        raise PlanningError("robot_count must be positive")
    rng = random.Random(seed)
    count = 1 + rng.randrange(max(1, max_events))
    instants = sorted({round(0.05 + 0.9 * rng.random(), 6) for _ in range(count)})
    crashes = []
    for at in instants:
        size = 1 + rng.randrange(max(1, max_per_event))
        robots = tuple(sorted({rng.randrange(robot_count) for _ in range(size)}))
        crashes.append(CrashFault(at=at, robots=robots))
    return FaultSchedule(
        seed=seed, crashes=tuple(crashes), comms=comms, name=f"random-{seed}"
    )
