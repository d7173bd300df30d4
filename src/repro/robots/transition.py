"""Building swarm trajectories for FoI transitions.

Helpers that turn per-robot start/target pairs into a synchronous
:class:`~repro.robots.motion.SwarmTrajectory`, inserting hole detours
where a straight path would cross forbidden terrain (Sec. III-D3) and
supporting the "parallel escort" paths used by the connectivity repair
of Sec. III-D1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError, PlanningError
from repro.foi.detour import detour_path_holes, paths_blocked_by_holes
# Unused here since the batch mask replaced it, but bench/layers.py
# still lists this module's name as a lookup site.
from repro.foi.detour import path_blocked_by_holes  # noqa: F401
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points
from repro.obs import span
from repro.robots.motion import SwarmTrajectory

__all__ = [
    "straight_transition",
    "detoured_transition",
    "stepwise_trajectory",
]

DEFAULT_TRANSITION_TIME = 1.0


def straight_transition(
    starts, targets, t_start: float = 0.0, t_end: float = DEFAULT_TRANSITION_TIME
) -> SwarmTrajectory:
    """Straight-line synchronous transition (Eqn. 2 of the paper)."""
    p = as_points(starts)
    q = as_points(targets)
    if len(p) != len(q):
        raise PlanningError("start/target count mismatch")
    return SwarmTrajectory.constant_speed(
        np.arange(0, 2 * len(p) + 1, 2),
        np.stack([p, q], axis=1).reshape(-1, 2),
        t_start,
        t_end,
    )


def detoured_transition(
    starts,
    targets,
    target_foi: FieldOfInterest | None = None,
    t_start: float = 0.0,
    t_end: float = DEFAULT_TRANSITION_TIME,
    source_foi: FieldOfInterest | None = None,
) -> SwarmTrajectory:
    """Synchronous transition with hole detours (Sec. III-D3).

    Robots whose straight path crosses a hole of the target FoI - or of
    the source FoI they are leaving, when given - follow the hole
    boundary per the paper's rule.  One batch test finds the blocked
    robots and only those run the detour repair loop, both inside a
    ``march.detour`` span carrying the ``blocked`` robot count and the
    total number of ``repairs`` (boundary arcs inserted).

    Parameters
    ----------
    starts, targets : (n, 2) array-like
    target_foi : FieldOfInterest, optional
        When both FoIs are omitted or hole-free this degrades to
        :func:`straight_transition`.
    source_foi : FieldOfInterest, optional
        The FoI being left; its holes are avoided too (relevant for the
        hole-to-hole scenarios where robots start around obstacles).
    """
    p = as_points(starts)
    q = as_points(targets)
    if len(p) != len(q):
        raise PlanningError("start/target count mismatch")
    holes = []
    areas = []
    for foi in (target_foi, source_foi):
        if foi is not None and foi.has_holes:
            holes.extend(foi.holes)
            areas.append(foi.area)
    if not holes:
        return straight_transition(p, q, t_start, t_end)
    margin = 1e-3 * max(1.0, float(np.sqrt(max(areas))))
    detours = []
    with span("march.detour") as sp_:
        blocked = np.flatnonzero(paths_blocked_by_holes(holes, p, q) >= 0)
        repairs = 0
        for i in blocked.tolist():
            try:
                w, n = detour_path_holes(
                    holes, p[i], q[i], margin=margin, return_repairs=True
                )
            except GeometryError as exc:
                raise GeometryError(f"march detour of robot {i}: {exc}") from exc
            detours.append(w)
            repairs += n
        sp_.set_attributes(blocked=len(blocked), repairs=repairs)
    counts = np.full(len(p), 2)
    counts[blocked] = [len(w) for w in detours]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    xy = np.empty((offsets[-1], 2))
    xy[offsets[:-1]], xy[offsets[1:] - 1] = p, q
    for i, w in zip(blocked.tolist(), detours):
        xy[offsets[i]:offsets[i + 1]] = w
    return SwarmTrajectory.constant_speed(offsets, xy, t_start, t_end)


def stepwise_trajectory(
    step_positions, t_start: float = 0.0, t_end: float = DEFAULT_TRANSITION_TIME
) -> SwarmTrajectory:
    """Trajectory through a sequence of synchronous swarm snapshots.

    Used for the Lloyd adjustment phase: every robot moves linearly
    from its position in step ``k`` to its position in step ``k + 1``,
    with all robots synchronised at the step boundaries.

    Parameters
    ----------
    step_positions : sequence of (n, 2) arrays
        At least one snapshot; all with the same robot count.
    """
    steps = [as_points(s) for s in step_positions]
    if not steps:
        raise PlanningError("need at least one snapshot")
    n = len(steps[0])
    if any(len(s) != n for s in steps):
        raise PlanningError("snapshots have inconsistent robot counts")
    k = len(steps)
    times = [t_start] if k == 1 else np.linspace(t_start, t_end, k)
    return SwarmTrajectory(
        np.arange(0, k * n + 1, k),
        np.tile(times, n),
        np.stack(steps, axis=1).reshape(-1, 2),
        t_start,
        t_end,
    )
