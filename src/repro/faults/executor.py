"""Resilient mission execution under an injected fault schedule.

:class:`ResilientExecutor` runs one full marching transition while the
faults of a :class:`~repro.faults.schedule.FaultSchedule` fire, and
recovers automatically:

* **detect** - each fault fires at its mission-fraction instant; the
  march freezes there and the fleet state is snapshotted.
* **cascade** - every crash event goes through the crash freeze step
  of :mod:`repro.marching.replan` (the one
  :func:`~repro.marching.replan.replan_after_failure` applies per
  event), with later instants rescaled onto each fresh plan, and the
  survivors replan from where they stand.
* **repair** - the freeze step runs under the ``"rejoin"`` survivor
  policy: when a crash cuts the survivor network, each minor component
  moves rigidly (all internal links frozen, exactly like the planner's
  parallel-escort repair) until it re-enters communication range of the
  main body.
* **refuse loudly** - when recovery is impossible (too few survivors,
  the planner cannot plan, the recovery consensus cannot complete under
  the injected message faults) a typed
  :class:`~repro.errors.UnrecoverableError` is raised.  Every code path
  ends in a recovered report or that error; nothing hangs (every loop
  and every protocol run is bounded) and nothing silently proceeds.

Recovery cost is measured (:class:`~repro.metrics.recovery.RecoveryMetrics`)
and mirrored into obs spans and gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.distributed.protocols.reliable_flood import ReliableFloodNode
from repro.distributed.runtime import LinkFaults, SyncNetwork
from repro.errors import PlanningError, ProtocolError, UnrecoverableError
from repro.faults.schedule import CrashFault, FaultSchedule, SlowFault
from repro.foi.region import FieldOfInterest
from repro.marching.planner import MarchingConfig, MarchingPlanner
from repro.marching.replan import CrashFreeze, freeze_crash
from repro.marching.result import MarchingResult
from repro.metrics.connectivity import ConnectivityReport, connectivity_report
from repro.metrics.recovery import RecoveryMetrics
from repro.metrics.stable_links import stable_link_ratio
from repro.obs import get_metrics, span
from repro.robots.swarm import Swarm

__all__ = ["ChaosRunReport", "ResilientExecutor", "SegmentRecord"]


@dataclass(frozen=True)
class SegmentRecord:
    """One executed piece of the mission.

    Attributes
    ----------
    kind : str
        ``"march"`` (a portion of a plan actually flown), ``"rejoin"``
        (an escort move pulling cut survivors back into range), or
        ``"hold"`` (a stuck/slow window costing only time).
    survivor_ids : tuple[int, ...]
        Robots alive during the segment, original numbering.
    distance : float
        Fleet distance flown in the segment.
    duration : float
        Mission time the segment consumed.
    connectivity : ConnectivityReport or None
        Definition-2 check of the segment's plan (march segments of
        replanned legs; ``None`` for rejoin/hold segments).
    """

    kind: str
    survivor_ids: tuple[int, ...]
    distance: float
    duration: float
    connectivity: ConnectivityReport | None = None


@dataclass(frozen=True)
class ChaosRunReport:
    """Outcome of one fault-injected mission that *recovered*.

    Unrecoverable runs raise :class:`~repro.errors.UnrecoverableError`
    instead - the executor has exactly two outcomes.

    Attributes
    ----------
    schedule : FaultSchedule
    outcome : str
        Always ``"recovered"`` on a returned report.
    survivor_ids : tuple[int, ...]
        Robots (original numbering) that reached the target.
    final_result : MarchingResult
        The last plan the survivors executed.
    metrics : RecoveryMetrics
    segments : tuple[SegmentRecord, ...]
        The mission's executed pieces in time order.
    """

    schedule: FaultSchedule
    outcome: str
    survivor_ids: tuple[int, ...]
    final_result: MarchingResult
    metrics: RecoveryMetrics
    segments: tuple[SegmentRecord, ...]

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON summary (chaos sweep documents)."""
        return {
            "outcome": self.outcome,
            "schedule": self.schedule.to_dict(),
            "survivors": list(self.survivor_ids),
            "metrics": self.metrics.to_dict(),
            "segments": [
                {
                    "kind": s.kind,
                    "robots": len(s.survivor_ids),
                    "distance": s.distance,
                    "duration": s.duration,
                    "connected": None
                    if s.connectivity is None
                    else s.connectivity.connected,
                }
                for s in self.segments
            ],
        }


class ResilientExecutor:
    """Runs marching transitions to completion under fault schedules.

    Parameters
    ----------
    config : MarchingConfig, optional
        Planner settings shared by the original plan and every replan.
    resolution : int
        Definition-2 sampling resolution (``L`` is exact and samples no grid).
    consensus_round_time : float
        Mission time charged per consensus round of each recovery
        (models the paper's robots pausing to cooperatively determine
        the new plan; 0 makes consensus free).
    consensus_attempts : int
        Round-budget doublings before a failing recovery consensus is
        declared unrecoverable.
    """

    def __init__(
        self,
        config: MarchingConfig | None = None,
        resolution: int = 16,
        consensus_round_time: float = 0.0,
        consensus_attempts: int = 2,
    ) -> None:
        self.config = config or MarchingConfig()
        self.resolution = int(resolution)
        self.consensus_round_time = float(consensus_round_time)
        self.consensus_attempts = max(1, int(consensus_attempts))

    # ------------------------------------------------------------------

    def execute(
        self,
        swarm: Swarm,
        target_foi: FieldOfInterest,
        schedule: FaultSchedule,
        source_foi: FieldOfInterest | None = None,
        original: MarchingResult | None = None,
    ) -> ChaosRunReport:
        """Run the transition under ``schedule`` and recover from it.

        Parameters
        ----------
        swarm : Swarm
            The fleet on the current FoI.
        target_foi : FieldOfInterest
        schedule : FaultSchedule
        source_foi : FieldOfInterest, optional
            Forwarded to the planner (hole-aware detours).
        original : MarchingResult, optional
            A precomputed fault-free plan for this exact transition
            (skips the initial planning; property tests reuse one plan
            across many schedules).

        Returns
        -------
        ChaosRunReport
            When every fault was recovered and every post-replan leg
            kept Definition-2 connectivity.

        Raises
        ------
        UnrecoverableError
            When recovery is impossible; the error's ``stage`` and
            ``survivors`` say where it died.
        """
        with span(
            "faults.execute",
            robots=swarm.size,
            crashes=len(schedule.crashes),
            seed=schedule.seed,
        ) as sp_:
            report = self._execute(swarm, target_foi, schedule, source_foi, original)
            m = report.metrics
            sp_.set_attributes(
                replans=m.replan_count,
                rejoins=m.rejoin_count,
                survivors=m.survivor_count,
                extra_distance=m.extra_distance,
                time_to_recover=m.time_to_recover,
            )
        metrics = get_metrics()
        metrics.counter("faults.missions_recovered").inc()
        metrics.counter("faults.replans").inc(m.replan_count)
        metrics.counter("faults.rejoins").inc(m.rejoin_count)
        metrics.gauge("faults.time_to_recover").set(m.time_to_recover)
        metrics.gauge("faults.extra_distance").set(m.extra_distance)
        metrics.gauge("faults.stable_link_degradation").set(
            m.stable_link_degradation
        )
        return report

    # ------------------------------------------------------------------

    def _execute(
        self,
        swarm: Swarm,
        target_foi: FieldOfInterest,
        schedule: FaultSchedule,
        source_foi: FieldOfInterest | None,
        original: MarchingResult | None,
    ) -> ChaosRunReport:
        comm_range = swarm.radio.comm_range
        if original is None:
            with span("faults.baseline_plan"):
                original = MarchingPlanner(self.config).plan(
                    swarm, target_foi, source_foi=source_foi
                )
        baseline_distance = original.total_distance
        baseline_L = stable_link_ratio(original.links, original.trajectory)
        nominal_duration = original.trajectory.duration

        current = original
        alive = np.arange(original.robot_count)
        window_start = 0.0  # mission fraction where the current plan began
        cursor = current.trajectory.t_start  # local time already executed
        executed_distance = 0.0
        time_to_recover = 0.0
        consensus_rounds = 0
        rejoins = 0
        segments: list[SegmentRecord] = []
        replanned: list[MarchingResult] = []

        for fault in schedule.events():
            if not isinstance(fault, CrashFault):
                # A stuck window holds the fleet; a slow one dilates it.
                hold = fault.duration * nominal_duration
                if isinstance(fault, SlowFault):
                    hold *= 1.0 / fault.factor - 1.0
                time_to_recover += hold
                segments.append(
                    SegmentRecord(
                        kind="hold",
                        survivor_ids=tuple(int(i) for i in alive),
                        distance=0.0,
                        duration=hold,
                    )
                )
                continue

            traj = current.trajectory
            frozen = freeze_crash(
                traj, fault.at, (window_start, 1.0), alive, fault.robots,
                comm_range, "rejoin", clock="mission fraction",
            )
            if frozen is None:
                continue  # every named robot already died earlier

            # Account the distance flown on this plan so far.
            flown = float(traj.distances_between(cursor, frozen.time).sum())
            executed_distance += flown
            segments.append(
                SegmentRecord(
                    kind="march",
                    survivor_ids=tuple(int(i) for i in alive),
                    distance=flown,
                    duration=max(0.0, frozen.time - cursor),
                    connectivity=None,
                )
            )
            survivors = len(frozen.survivors)
            if frozen.rejoin is not None:
                rejoin_dist, longest = frozen.rejoin
                rejoins += 1
                executed_distance += rejoin_dist
                # The escorted components fly at nominal mission speed;
                # the fleet waits for the longest move.
                speed = _nominal_speed(original)
                rejoin_time = longest / speed if speed > 0 else 0.0
                time_to_recover += rejoin_time
                segments.append(
                    SegmentRecord(
                        kind="rejoin",
                        survivor_ids=tuple(int(i) for i in alive[frozen.survivors]),
                        distance=rejoin_dist,
                        duration=rejoin_time,
                    )
                )

            # The survivors cooperatively agree on the new roster before
            # planning - over links subject to the schedule's message
            # faults.
            consensus_rounds += self._consensus(frozen, schedule)

            with span("faults.replan", survivors=survivors):
                try:
                    new_result = frozen.replan(target_foi, self.config)
                except PlanningError as exc:
                    raise UnrecoverableError(
                        f"survivors could not replan at mission fraction "
                        f"{fault.at}: {exc}",
                        stage="replan",
                        survivors=survivors,
                    ) from exc
            replanned.append(new_result)
            alive = alive[frozen.survivors]
            current = new_result
            window_start = fault.at
            cursor = new_result.trajectory.t_start
            time_to_recover += consensus_rounds * self.consensus_round_time

        # Fly the last plan to completion.
        traj = current.trajectory
        flown = float(traj.distances_between(cursor, traj.t_end).sum())
        executed_distance += flown

        # Every replanned leg must deliver the Definition-2 guarantee at
        # each sampled instant; a recovered report never hides a cut.
        final_report: ConnectivityReport | None = None
        for result in replanned:
            rep = connectivity_report(
                result.trajectory,
                comm_range,
                result.boundary_anchors,
                self.resolution,
            )
            if result is current:
                final_report = rep
            if not rep.connected:
                raise UnrecoverableError(
                    "a replanned leg violates global connectivity at "
                    f"sampled instant {rep.first_failure_time}",
                    stage="replan",
                    survivors=len(alive),
                )
        segments.append(
            SegmentRecord(
                kind="march",
                survivor_ids=tuple(int(i) for i in alive),
                distance=flown,
                duration=max(0.0, traj.t_end - cursor),
                connectivity=final_report,
            )
        )

        final_L = (
            stable_link_ratio(current.links, current.trajectory)
            if replanned
            else baseline_L
        )
        metrics = RecoveryMetrics(
            replan_count=len(replanned),
            rejoin_count=rejoins,
            consensus_rounds=consensus_rounds,
            time_to_recover=time_to_recover,
            baseline_distance=baseline_distance,
            executed_distance=executed_distance,
            extra_distance=executed_distance - baseline_distance,
            baseline_stable_link_ratio=baseline_L,
            final_stable_link_ratio=final_L,
            stable_link_degradation=baseline_L - final_L,
            connected_all=True,
            lost_robots=original.robot_count - len(alive),
            survivor_count=len(alive),
        )
        return ChaosRunReport(
            schedule=schedule,
            outcome="recovered",
            survivor_ids=tuple(int(i) for i in alive),
            final_result=current,
            metrics=metrics,
            segments=tuple(segments),
        )

    # ------------------------------------------------------------------

    def _consensus(self, frozen: CrashFreeze, schedule: FaultSchedule) -> int:
        """Survivor roster consensus under the schedule's message faults.

        A reliable flood over the survivors' communication graph; every
        node must learn every other node's presence.  The round budget
        doubles ``consensus_attempts`` times before the recovery is
        declared unrecoverable - so extreme message faults surface as
        the typed error, never as a hang.
        """
        k = len(frozen.positions)
        adjacency = frozen.adjacency()
        faults = schedule.comms
        loss = faults.loss_rate if faults is not None else 0.0
        # Reliable flood retransmits until acked, so its expected round
        # count scales like 1/(1 - loss); a linear budget with headroom
        # stays generous without ever ballooning into a near-hang.
        budget = int((6 * k + 30) / max(0.1, 1.0 - loss))
        if faults is not None and faults.delay_rate > 0:
            budget += faults.max_delay * (k + 10)
        last_error: ProtocolError | None = None
        for attempt in range(self.consensus_attempts):
            nodes = [ReliableFloodNode(i, 1.0, k) for i in range(k)]
            net = SyncNetwork(
                nodes,
                adjacency,
                seed=schedule.seed + attempt,
                faults=faults,
            )
            with span(
                "faults.consensus", survivors=k, attempt=attempt
            ) as sp_:
                try:
                    rounds = net.run(max_rounds=budget << attempt)
                except ProtocolError as exc:
                    last_error = exc
                    sp_.set_attributes(failed=True)
                    continue
                if all(node.complete for node in nodes):
                    sp_.set_attributes(rounds=rounds)
                    return rounds
                last_error = ProtocolError(
                    "consensus went quiet with incomplete rosters"
                )
                sp_.set_attributes(failed=True)
        raise UnrecoverableError(
            f"recovery consensus failed after {self.consensus_attempts} "
            f"attempts: {last_error}",
            stage="consensus",
            survivors=k,
        ) from last_error


def _nominal_speed(original: MarchingResult) -> float:
    """Mission-reference speed: the fastest robot of the original plan."""
    duration = original.trajectory.duration
    if duration <= 0:
        return 0.0
    return float(original.trajectory.path_lengths().max()) / duration
