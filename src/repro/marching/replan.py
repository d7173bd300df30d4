"""Mid-transition replanning after robot failures.

The paper motivates ANR systems as "more reliable since the failure of
an individual robot can be recovered by its peers", and the global-
connectivity requirement exists precisely so the survivors can
coordinate a new plan mid-march ("the ANRs must cooperatively determine
how to adapt to the event.  If an ANR is isolated at this time, it may
be excluded from the new plan and thus become permanently lost").

This module is the one place a crash is applied.  :func:`freeze_crash`
freezes a trajectory at a crash, drops the dead, enforces the
4-survivor floor and settles cut survivors under the caller's policy
(refuse, keep the largest component, or :func:`rejoin_components`);
:meth:`CrashFreeze.replan` plans the survivors afresh.
:func:`replan_after_failure`, the resilient executor and the mission
runner all go through that step.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.coverage.density import DensityFunction
from repro.errors import PlanningError, UnrecoverableError
from repro.foi.region import FieldOfInterest
from repro.marching.planner import MarchingConfig, MarchingPlanner
from repro.marching.result import MarchingResult
from repro.network.udg import UnitDiskGraph
from repro.obs import span
from repro.robots.motion import SwarmTrajectory
from repro.robots.robot import RadioSpec
from repro.robots.swarm import Swarm

__all__ = [
    "CascadeOutcome",
    "FailureEvent",
    "ReplanOutcome",
    "rejoin_components",
    "replan_after_failure",
    "validate_failure_sequence",
]


@dataclass(frozen=True)
class FailureEvent:
    """Robots failing at one instant of a transition.

    Attributes
    ----------
    time : float
        Failure instant within the original trajectory's time span.
    failed : tuple[int, ...]
        Robot indices (original numbering) that died.
    """

    time: float
    failed: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.failed:
            raise PlanningError("a failure event needs at least one robot")
        if len(set(self.failed)) != len(self.failed):
            raise PlanningError("duplicate robot ids in failure event")


@dataclass(frozen=True)
class ReplanOutcome:
    """Result of a mid-transition recovery.

    Attributes
    ----------
    event : FailureEvent
    survivor_ids : (k,) int ndarray
        Original indices of the surviving robots, in the order used by
        ``result`` (survivor ``i`` in the new plan is original robot
        ``survivor_ids[i]``).
    positions_at_failure : (k, 2) ndarray
        Survivor positions at the failure instant.
    survivors_connected : bool
        Whether the surviving network was connected when it replanned.
    result : MarchingResult
        The survivors' fresh plan into the target FoI.
    """

    event: FailureEvent
    survivor_ids: np.ndarray
    positions_at_failure: np.ndarray
    survivors_connected: bool
    result: MarchingResult


@dataclass(frozen=True)
class CascadeOutcome:
    """Result of recovering from an ordered *sequence* of failures.

    Each step replans the previous step's survivors, so the sequence
    models the cascading-failure regime: the swarm freezes at every
    failure instant, drops the newly dead, and marches on under a fresh
    plan.

    Attributes
    ----------
    steps : tuple of ReplanOutcome
        One entry per failure event, in time order.  Step ``k``'s
        ``survivor_ids`` are indices into step ``k-1``'s plan (the
        numbering each replan actually worked in).
    survivor_ids : (k,) int ndarray
        Final survivors in the *original* numbering.
    result : MarchingResult
        The last step's plan - the one the final survivors execute.
    """

    steps: tuple[ReplanOutcome, ...]
    survivor_ids: np.ndarray
    result: MarchingResult

    @property
    def replan_count(self) -> int:
        return len(self.steps)


def validate_failure_sequence(
    events: Sequence[FailureEvent], t_start: float, t_end: float
) -> tuple[FailureEvent, ...]:
    """Check an ordered failure sequence against a plan's time span.

    Times must be strictly increasing and inside ``[t_start, t_end]``
    (an event after ``T`` describes a failure that never happened
    during the transition); no robot may die twice.

    Raises
    ------
    PlanningError
        On an empty, unordered, out-of-range or duplicated sequence.
    """
    events = tuple(events)
    if not events:
        raise PlanningError("failure sequence must contain at least one event")
    dead: set[int] = set()
    previous = None
    for event in events:
        if previous is not None and event.time <= previous:
            raise PlanningError(
                "failure times must be strictly increasing: "
                f"{event.time} follows {previous}"
            )
        if not (t_start <= event.time <= t_end):
            raise PlanningError(
                f"failure time {event.time} outside [{t_start}, {t_end}]"
            )
        again = dead.intersection(event.failed)
        if again:
            raise PlanningError(
                f"robots {sorted(again)} already failed in an earlier event"
            )
        dead.update(event.failed)
        previous = event.time
    return events


def replan_after_failure(
    original: MarchingResult,
    event: FailureEvent | Sequence[FailureEvent],
    target_foi: FieldOfInterest,
    comm_range: float,
    config: MarchingConfig | None = None,
    density: DensityFunction | None = None,
    require_connected: bool = True,
) -> ReplanOutcome | CascadeOutcome:
    """Recover from robot failures by replanning the survivors' march.

    Parameters
    ----------
    original : MarchingResult
        The plan being executed when the failure happened.
    event : FailureEvent or ordered sequence of FailureEvent
        A single event returns a :class:`ReplanOutcome`.  A sequence
        (times strictly increasing, robot ids in the original
        numbering, no event after ``T``) returns a
        :class:`CascadeOutcome`: each event freezes and replans the
        previous survivors' plan, its time mapped proportionally onto
        that plan (the rest of the original timeline spans it).
    target_foi : FieldOfInterest
        The destination (unchanged by the failure).
    comm_range : float
    config : MarchingConfig, optional
        Planner settings for the new plan.
    density : DensityFunction, optional
    require_connected : bool
        When True (default), raise if the failures disconnected the
        surviving network - the situation the paper's Definition-2
        guarantee exists to prevent.  When False, only the largest
        surviving component replans.

    Raises
    ------
    PlanningError
        If fewer than 4 robots survive, a failure instant is outside the
        plan, the sequence is unordered or kills a robot twice, or (with
        ``require_connected``) the survivors are disconnected.
    """
    single = isinstance(event, FailureEvent)
    traj = original.trajectory
    events = validate_failure_sequence(
        (event,) if single else event, traj.t_start, traj.t_end
    )
    n = original.robot_count
    if not all(0 <= int(i) < n for ev in events for i in ev.failed):
        raise PlanningError("failed robot id out of range")

    policy = "refuse" if require_connected else "largest"
    steps: list[ReplanOutcome] = []
    current = original
    alive = np.arange(n)  # original ids, in the current plan's order
    window_start = traj.t_start  # original-timeline instant of the
    # current plan's t_start (the previous failure time after a replan)
    for ev in events:
        # validate_failure_sequence rejected double deaths, so every
        # event kills someone and the freeze is never skipped.
        frozen = freeze_crash(
            current.trajectory, ev.time, (window_start, traj.t_end), alive,
            ev.failed, comm_range, policy,
        )
        result = frozen.replan(target_foi, config, density)
        steps.append(
            ReplanOutcome(
                event=FailureEvent(time=frozen.time, failed=frozen.failed),
                survivor_ids=frozen.survivors,
                positions_at_failure=frozen.positions,
                survivors_connected=frozen.connected,
                result=result,
            )
        )
        alive = alive[frozen.survivors]
        current = result
        window_start = ev.time
    if single:
        return dataclasses.replace(steps[0], event=event)
    return CascadeOutcome(steps=tuple(steps), survivor_ids=alive, result=current)


@dataclass(frozen=True)
class CrashFreeze:
    """The survivors of one crash, frozen at its instant.

    ``time`` is the crash instant on the trajectory's clock, ``failed``
    the newly dead and ``survivors`` the robots that replan (both in the
    trajectory's numbering), ``positions`` where the survivors stand
    (after the escort under ``"rejoin"``), ``connected`` whether they
    were connected at ``time``, and ``rejoin`` the escort's
    ``(fleet_distance, longest_move)`` when one ran.
    """

    time: float
    failed: tuple[int, ...]
    survivors: np.ndarray
    positions: np.ndarray
    comm_range: float
    connected: bool
    rejoin: tuple[float, float] | None = None

    def adjacency(self) -> list:
        """The survivors' communication graph (adjacency lists)."""
        return UnitDiskGraph(self.positions, self.comm_range).adjacency

    def replan(
        self,
        target_foi: FieldOfInterest,
        config: MarchingConfig | None = None,
        density: DensityFunction | None = None,
    ) -> MarchingResult:
        """Plan the survivors afresh from their frozen positions."""
        swarm = Swarm(self.positions, RadioSpec.from_comm_range(self.comm_range))
        planner = MarchingPlanner(config or MarchingConfig())
        return planner.plan(swarm, target_foi, density=density)


def freeze_crash(
    trajectory: SwarmTrajectory,
    at: float,
    window: tuple[float, float],
    ids: np.ndarray,
    crashed: Sequence[int],
    comm_range: float,
    policy: str,
    span_end: float | None = None,
    clock: str = "failure time",
) -> CrashFreeze | None:
    """Freeze ``trajectory`` at a crash and settle who marches on.

    ``at`` is on the caller's clock (named ``clock`` in errors), whose
    stretch ``window`` maps onto ``[trajectory.t_start, span_end]``
    (default ``trajectory.t_end``).  ``ids`` holds the caller's id of
    each trajectory robot, negative for one already dead; ``crashed``
    ids already dead or absent are skipped.  ``policy`` says what cut
    survivors do: ``"refuse"`` raises, ``"largest"`` keeps the main
    component, ``"rejoin"`` escorts the rest back to it.

    Returns ``None`` when every crashed robot had already died.

    Raises
    ------
    UnrecoverableError
        Stage ``"survivors"`` when fewer than 4 robots survive or (under
        ``"refuse"``) they are cut apart; stage ``"rejoin"`` when the
        escort cannot reconnect them.
    """
    t_end = trajectory.t_end if span_end is None else span_end
    time = _remap_event_time(at, window[0], window[1], trajectory.t_start, t_end)
    local = {int(orig): k for k, orig in enumerate(ids) if orig >= 0}
    failed = tuple(sorted(local[int(i)] for i in crashed if int(i) in local))
    if not failed:
        return None
    dead = set(failed)
    survivors = np.array([k for k in local.values() if k not in dead], dtype=int)
    if len(survivors) < 4:
        raise UnrecoverableError(
            f"only {len(survivors)} survivors left at {clock} {at}; "
            "a marching problem needs 4",
            stage="survivors",
            survivors=len(survivors),
        )
    positions = trajectory.positions_at(time)[survivors]
    graph = UnitDiskGraph(positions, comm_range)
    connected = graph.is_connected()
    rejoin = None
    if not connected:
        if policy == "refuse":
            raise UnrecoverableError(
                f"survivors are disconnected at {clock} {at}; largest "
                f"component holds {len(graph.components[0])}/"
                f"{len(survivors)} robots",
                stage="survivors",
                survivors=len(survivors),
            )
        if policy == "largest":
            # The paper's warning made concrete: robots cut off from the
            # main network "may be excluded from the new plan and thus
            # become permanently lost".
            main = np.asarray(graph.components[0], dtype=int)
            survivors, positions = survivors[main], positions[main]
        else:
            with span("faults.rejoin", components=len(graph.components)):
                positions, distance, longest = rejoin_components(
                    positions, comm_range
                )
            rejoin = (distance, longest)
    return CrashFreeze(
        time=time,
        failed=failed,
        survivors=survivors,
        positions=positions,
        comm_range=comm_range,
        connected=connected,
        rejoin=rejoin,
    )


def rejoin_components(
    positions: np.ndarray,
    comm_range: float,
    margin: float = 0.9,
) -> tuple[np.ndarray, float, float]:
    """Escort cut components back into one connected network.

    Each minor component repeatedly translates rigidly toward the
    closest robot of the main (largest) component until its closest
    member sits ``margin * comm_range`` away - a rigid move keeps every
    intra-component link alive by construction, exactly like the
    planner's parallel-escort repair freezes relative positions.

    Returns
    -------
    (rejoined_positions, fleet_distance, longest_single_move)

    Raises
    ------
    UnrecoverableError
        If the merge loop exceeds its bound (cannot happen for finite
        inputs - every round strictly reduces the component count - but
        recovery never trusts an unbounded loop).
    """
    pos = np.asarray(positions, dtype=float).copy()
    n = len(pos)
    fleet_distance = 0.0
    longest = 0.0
    for _ in range(max(n, 1)):
        graph = UnitDiskGraph(pos, comm_range)
        comps = graph.components
        if len(comps) <= 1:
            return pos, fleet_distance, longest
        main = comps[0]
        best: tuple[float, int, int, int] | None = None
        for ci, comp in enumerate(comps[1:], start=1):
            for j in comp:
                delta = pos[main] - pos[j]
                dist = np.hypot(delta[:, 0], delta[:, 1])
                k = int(np.argmin(dist))
                cand = (float(dist[k]), j, main[k], ci)
                if best is None or cand < best:
                    best = cand
        dist, j, anchor, ci = best
        direction = pos[anchor] - pos[j]
        shift = direction * (1.0 - margin * comm_range / max(dist, 1e-12))
        comp = comps[ci]
        pos[comp] += shift
        move = float(np.hypot(shift[0], shift[1]))
        fleet_distance += move * len(comp)
        longest = max(longest, move)
    raise UnrecoverableError(
        "escort rejoin failed to reconnect the survivors",
        stage="rejoin",
        survivors=n,
    )


def _remap_event_time(
    event_time: float,
    window_start: float,
    window_end: float,
    span_start: float,
    span_end: float,
) -> float:
    """Map an original-timeline instant onto the current plan's span.

    The remaining window ``[window_start, window_end]`` of the original
    timeline stretches proportionally over the fresh plan's full span.
    Two degenerate shapes need explicit handling:

    * a *zero-length remaining window* (``window_end <= window_start``,
      e.g. a cascade whose previous failure froze the plan exactly at
      ``T``, or a zero-duration trajectory): the march is over, so the
      event observes the plan's *final* positions - the fraction is 1,
      not 0 (mapping to the fresh plan's start would rewind survivors
      to positions they already left);
    * an event *exactly at* the window end (mission fraction 1.0):
      the proportional fraction is clamped into ``[0, 1]`` so float
      round-off can never push the local instant outside the span.
    """
    remaining = window_end - window_start
    if remaining <= 0.0:
        frac = 1.0
    else:
        frac = (event_time - window_start) / remaining
        frac = min(1.0, max(0.0, frac))
    return span_start + frac * (span_end - span_start)
