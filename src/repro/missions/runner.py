"""The mission executor: march, detect target motion, replan, repeat.

:class:`MissionRunner` drives one mission end to end.  Each epoch it
plans from the swarm's current positions to the epoch's target, lets
the swarm execute a configurable fraction of that plan (the remainder
is abandoned when the next target update arrives), and measures the
leg: disk-map cache traffic, executed distance, stable-link ratio, and
connectivity at every sampled instant *including* left-sided limits at
jump discontinuities.  Crash faults from an optional
:class:`~repro.faults.schedule.FaultSchedule` are composed in: a crash
whose mission fraction lands inside an epoch goes through the crash
freeze step of :mod:`repro.marching.replan` under the ``"refuse"``
survivor policy, its robots stop at the remapped instant of the
executed window, and the surviving swarm replans the next leg without
them.

Determinism contract: :meth:`MissionRunner.run` scopes a *private*
cache and metrics registry, so the produced mission document is a pure
function of ``(spec, config, faults)`` - byte-identical whether the
mission runs in-process, in a service worker, or behind a sharded
fleet.  Wall-clock measurements (replan latency) are therefore *not*
part of the document; they are emitted through the ``progress``
callback only.  Every epoch ends in a metrics record or a typed
:class:`~repro.errors.MissionError` - never a silently degraded plan.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.errors import (
    MissionError, MissionInterrupted, ReproError, UnrecoverableError,
)
from repro.exec.cache import ContentCache, activate_cache
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.io import canonical_digest, mission_document, result_to_dict
from repro.marching.planner import MarchingPlanner
from repro.marching.replan import freeze_crash
from repro.metrics.connectivity import isolated_counts
from repro.metrics.stable_links import stable_link_ratio
from repro.missions.checkpoint import MissionCheckpoint, checkpoint_key
from repro.missions.diff import plan_diff
from repro.missions.spec import MissionConfig, MissionSpec
from repro.missions.targets import mission_targets
from repro.obs import Metrics, activate_metrics, span
from repro.robots.robot import RadioSpec
from repro.robots.swarm import Swarm

__all__ = ["MissionRunner", "run_mission"]

#: Disk-map cache counters sampled per epoch.
_HITS = "cache.harmonic.diskmap.hits"
_MISSES = "cache.harmonic.diskmap.misses"

#: ``progress(kind, data)`` callback type: mirrors the service's SSE
#: event shape (kind plus a JSON-safe payload).
ProgressFn = Callable[[str, dict[str, Any]], None]


def _validated_schedule(faults: FaultSchedule | None) -> FaultSchedule | None:
    """Missions compose with crash faults only - refuse the rest loudly."""
    if faults is None:
        return None
    unsupported = []
    if faults.stucks:
        unsupported.append("stuck")
    if faults.slows:
        unsupported.append("slow")
    if faults.comms is not None:
        unsupported.append("comms")
    if unsupported:
        raise MissionError(
            "mission fault schedules support crash faults only; "
            f"schedule {faults.name!r} also carries: {unsupported} "
            "(run those through the resilient executor instead)"
        )
    return faults


class MissionRunner:
    """Execute one mission: a seeded target sequence with replanning.

    Parameters
    ----------
    spec : MissionSpec
    config : MissionConfig, optional
    faults : FaultSchedule, optional
        Crash-only schedule; ``at`` instants are mission fractions over
        the *whole* mission (epoch ``k`` of ``E`` owns the fraction
        window ``[k/E, (k+1)/E)``).
    """

    def __init__(
        self,
        spec: MissionSpec,
        config: MissionConfig | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        self.spec = spec
        self.config = config or MissionConfig()
        self.faults = _validated_schedule(faults)

    # ------------------------------------------------------------------

    def _crashes_for_epoch(self, epoch: int) -> list[CrashFault]:
        if self.faults is None:
            return []
        # Fractions are < 1, so the last epoch's window takes the rest.
        lo = epoch / self.spec.epochs
        hi = (epoch + 1) / self.spec.epochs
        return [c for c in self.faults.crashes if lo <= c.at < hi]

    def run(
        self,
        progress: ProgressFn | None = None,
        checkpoint_dir: str | None = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> dict[str, Any]:
        """Run the mission; returns the canonical mission document.

        Parameters
        ----------
        progress : callable, optional
            ``progress(kind, data)`` sink for streaming events.
        checkpoint_dir : str or Path, optional
            Durable per-epoch checkpointing: completed epochs (and the
            mission's private disk-cache manifest) are committed there
            after every epoch, and a later run against the same
            directory resumes from the last committed epoch instead of
            epoch zero - producing a document byte-identical to an
            uninterrupted run.  The directory is removed on success.
        interrupt : callable, optional
            Polled at every epoch boundary; when it returns True the
            runner checkpoints (if enabled) and raises
            :class:`MissionInterrupted` - the graceful-drain hook.

        Raises
        ------
        MissionError
            When a leg cannot be planned, or a crash leaves too few /
            disconnected survivors.
        MissionInterrupted
            When ``interrupt`` fired at an epoch boundary.
        """
        emit = progress or (lambda kind, data: None)
        checkpoint: MissionCheckpoint | None = None
        if checkpoint_dir is not None:
            key = checkpoint_key(
                self.spec.to_dict(),
                self.config.to_dict(),
                self.faults.to_dict() if self.faults is not None else None,
            )
            checkpoint = MissionCheckpoint(checkpoint_dir, key=key)
            cache = checkpoint.cache(self.config.cache_capacity)
        else:
            cache = ContentCache(self.config.cache_capacity)
        with activate_metrics(Metrics()) as metrics, activate_cache(
            cache
        ), span("mission.run", family=self.spec.family, seed=self.spec.seed):
            return self._run(emit, metrics, checkpoint, interrupt)

    # ------------------------------------------------------------------

    def _run(
        self,
        emit: ProgressFn,
        metrics: Metrics,
        checkpoint: MissionCheckpoint | None = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> dict[str, Any]:
        spec, config = self.spec, self.config
        scenario, targets = mission_targets(spec, config)
        planner = MarchingPlanner(config.marching_config())
        radio = RadioSpec.from_comm_range(config.comm_range)

        alive = np.arange(scenario.swarm.size)  # original robot ids
        positions = scenario.swarm.positions
        epochs: list[dict[str, Any]] = []
        previous: dict[str, Any] = {}
        totals = {"hits": 0, "misses": 0, "distance": 0.0, "violations": 0}
        fault_replans = 0
        start_epoch = 0

        state = checkpoint.load() if checkpoint is not None else None
        if state is not None:
            # Resume from the last committed epoch.  Positions/ids come
            # back bit-exact (JSON floats round-trip through repr), and
            # the target sequence is regenerated deterministically, so
            # everything downstream is as if the completed epochs ran
            # in this process.
            epochs = [dict(e) for e in state["epochs"]]
            start_epoch = len(epochs)
            positions = np.asarray(state["positions"], dtype=float)
            alive = np.asarray(state["alive"], dtype=int)
            totals = dict(state["totals"])
            fault_replans = int(state["fault_replans"])
            if start_epoch > 0:
                prev = state["previous"]
                previous = {
                    "target": targets[start_epoch - 1],
                    "distance": prev.get("distance"),
                    "ratio": prev.get("ratio"),
                }
            metrics.counter("mission.checkpoint.resumed").inc()
            emit("resumed", {"epoch": start_epoch,
                             "epochs_completed": start_epoch})

        for epoch in range(start_epoch, len(targets)):
            target = targets[epoch]
            if interrupt is not None and interrupt():
                raise MissionInterrupted(
                    f"mission interrupted at epoch boundary {epoch} "
                    f"({epoch} epochs completed and checkpointed)",
                    epochs_completed=epoch,
                )
            hits0 = metrics.counter(_HITS).value
            misses0 = metrics.counter(_MISSES).value
            t0 = time.perf_counter()
            try:
                result = planner.plan(Swarm(positions, radio), target)
            except ReproError as exc:
                raise MissionError(
                    f"epoch {epoch} replan failed: {exc}", epoch=epoch
                ) from exc
            latency = time.perf_counter() - t0
            hits = int(metrics.counter(_HITS).value - hits0)
            misses = int(metrics.counter(_MISSES).value - misses0)

            traj = result.trajectory
            if epoch == len(targets) - 1:
                t_cut = traj.t_end
            else:
                t_cut = _cut_time(
                    traj, config.advance_fraction, config.comm_range, epoch
                )
            span_len = traj.t_end - traj.t_start
            frac = 1.0 if span_len <= 0 else (t_cut - traj.t_start) / span_len

            # -- crash faults landing in this epoch's fraction window --
            # local robot id -> crash instant (inf: never crashes)
            alive_until = np.full(len(alive), np.inf)
            recoveries: list[dict[str, Any]] = []
            lo = epoch / spec.epochs
            hi = (epoch + 1) / spec.epochs
            for crash in self._crashes_for_epoch(epoch):
                ids = np.where(np.isinf(alive_until), alive, -1)
                try:
                    frozen = freeze_crash(
                        traj, crash.at, (lo, hi), ids, crash.robots,
                        config.comm_range, "refuse", span_end=t_cut,
                        clock="mission fraction",
                    )
                except UnrecoverableError as exc:
                    raise MissionError(f"epoch {epoch}: {exc}", epoch=epoch) from exc
                if frozen is None:
                    continue  # every listed robot already died earlier
                alive_until[list(frozen.failed)] = frozen.time
                fault_replans += 1
                recovery = {
                    "epoch": epoch,
                    "at": float(crash.at),
                    "failed": [int(alive[j]) for j in frozen.failed],
                    "survivors": len(frozen.survivors),
                    "connected": True,
                }
                recoveries.append(recovery)
                emit("recovery", dict(recovery))

            # -- measure the executed window ---------------------------
            # Definition 2 on a uniform grid over [t_start, t_cut] plus
            # in-window jump left-limits: weaker than connectivity_report
            # (``resolution`` defaults to 6, no waypoint times), but the
            # pinned mission documents were measured on exactly this set.
            ts = np.linspace(traj.t_start, t_cut, max(2, config.resolution))
            disc = traj.discontinuity_times()
            disc = disc[(disc > traj.t_start) & (disc <= t_cut)]
            anchors = result.boundary_anchors
            right = isolated_counts(
                traj, config.comm_range, anchors, ts, alive_until=alive_until
            )
            left = isolated_counts(
                traj, config.comm_range, anchors, disc, side="left",
                alive_until=alive_until,
            )
            violations = int(np.count_nonzero(right) + np.count_nonzero(left))
            samples = len(ts) + len(disc)
            # A crashed robot flew until its crash, the rest until t_cut.
            flown_until = np.where(np.isfinite(alive_until), alive_until, t_cut)
            executed = float(traj.distances_between(traj.t_start, flown_until).sum())
            ratio = float(stable_link_ratio(result.links, traj))

            diff = plan_diff(
                epoch,
                target,
                result,
                stable_ratio=ratio,
                cache_hits=hits,
                cache_misses=misses,
                previous_target=previous.get("target"),
                previous_distance=previous.get("distance"),
                previous_stable_ratio=previous.get("ratio"),
                target_deformed=_deformed_epoch(spec, epoch),
            )
            record = {
                "epoch": epoch,
                "target": {
                    "name": target.name,
                    "centroid": [float(c) for c in target.centroid],
                    "area": float(target.area),
                },
                "robots": int(len(alive)),
                "plan_diff": diff.to_dict(),
                "executed_distance": executed,
                "executed_fraction": float(frac),
                "stable_ratio": ratio,
                "c_violations": int(violations),
                "samples": int(samples),
                "recoveries": recoveries,
                "plan_digest": canonical_digest(result_to_dict(result)),
            }
            epochs.append(record)
            totals["hits"] += hits
            totals["misses"] += misses
            totals["distance"] += executed
            totals["violations"] += violations
            previous = {"target": target, "distance": diff.plan_distance,
                        "ratio": ratio}

            # -- advance to the epoch boundary -------------------------
            survivors_local = np.flatnonzero(np.isinf(alive_until))
            positions = traj.positions_at(t_cut)[survivors_local]
            alive = alive[survivors_local]

            # -- commit, then announce: an observed ``checkpoint`` (or
            # later) event implies this epoch survives any crash -------
            if checkpoint is not None:
                checkpoint.save({
                    "epochs": epochs,
                    "positions": positions.tolist(),
                    "alive": [int(a) for a in alive],
                    "totals": totals,
                    "fault_replans": fault_replans,
                    "previous": {"distance": previous["distance"],
                                 "ratio": previous["ratio"]},
                })
                emit("checkpoint", {"epoch": epoch,
                                    "plan_digest": record["plan_digest"]})
            emit("plan_diff", diff.to_dict())
            emit(
                "epoch",
                {
                    "epoch": epoch,
                    "robots": record["robots"],
                    "cache_hits": hits,
                    "cache_misses": misses,
                    "c_violations": int(violations),
                    "replan_latency_s": latency,
                },
            )

        final_target = targets[-1]
        summary = {
            "epochs": len(epochs),
            "replans": len(epochs),
            "fault_replans": fault_replans,
            "survivors": int(len(alive)),
            "cache_hits": totals["hits"],
            "cache_misses": totals["misses"],
            "total_distance": float(totals["distance"]),
            "c_violations": int(totals["violations"]),
            "connected_all": totals["violations"] == 0,
            "in_target": int(np.sum(final_target.contains(positions))),
            "completed": True,
        }
        document = mission_document(
            spec.to_dict(),
            config.to_dict(),
            self.faults.to_dict() if self.faults is not None else None,
            epochs,
            summary,
        )
        if checkpoint is not None:
            checkpoint.clear()
        return document


def _deformed_epoch(spec: MissionSpec, epoch: int) -> bool:
    if epoch == 0:
        return False
    if spec.motion == "deform":
        return True
    return spec.motion == "drift+deform" and epoch % 2 == 0


def _cut_time(
    traj, advance_fraction: float, comm_range: float, epoch: int
) -> float:
    """The instant where this leg hands over to the next target.

    The next leg replans from the swarm's frozen snapshot, and the
    planner requires a *connected* start - mid-march the formation can
    satisfy Definition 2 (every robot reaches the boundary anchors)
    while momentarily split as a plain graph.  So the handover happens
    at the whole-graph-connected instant nearest the requested
    fraction, scanned deterministically outward in 1/64-span steps:
    the fleet regroups before accepting a new target.
    """
    span_len = traj.t_end - traj.t_start
    base = traj.t_start + advance_fraction * span_len
    if span_len <= 0:
        return traj.t_end
    step = span_len / 64.0
    for k in range(129):
        offset = ((k + 1) // 2) * step * (1 if k % 2 else -1)
        t = min(traj.t_end, max(traj.t_start, base + offset))
        if isolated_counts(traj, comm_range, None, [t])[0] == 0:
            return float(t)
    raise MissionError(
        f"epoch {epoch}: no connected handover instant found near "
        f"fraction {advance_fraction}",
        epoch=epoch,
    )


def run_mission(
    spec: MissionSpec | dict[str, Any],
    config: MissionConfig | dict[str, Any] | None = None,
    faults: FaultSchedule | None = None,
    progress: ProgressFn | None = None,
    checkpoint_dir: str | None = None,
    interrupt: Callable[[], bool] | None = None,
) -> dict[str, Any]:
    """Convenience wrapper: build a runner and run it once."""
    if isinstance(spec, dict):
        spec = MissionSpec.from_dict(spec)
    if isinstance(config, dict):
        config = MissionConfig.from_dict(config)
    return MissionRunner(spec, config=config, faults=faults).run(
        progress, checkpoint_dir=checkpoint_dir, interrupt=interrupt
    )
