"""Global connectivity ``C`` over a transition (paper Definition 2).

A transition has ``C = 1`` when, at every instant, every robot has a
multi-hop communication path to the network boundary (the robots on the
outer boundary loop of the extracted triangulation ``T``).
:func:`isolated_counts` is the package's one evaluator of that
predicate.  With no anchors - ``None``, empty, or none left once absent
robots are dropped - it degrades to plain graph connectivity, the same
predicate whenever the anchors are a non-empty subset of the swarm.
:func:`connectivity_report` evaluates it at the instants
:func:`~repro.metrics.stable_links.stable_link_report` uses: the
right-sided ``sample_times`` plus the left-sided limit at every jump in
``discontinuity_times``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.network.udg import UnitDiskGraph
from repro.robots.motion import SwarmTrajectory

__all__ = [
    "ConnectivityReport", "connectivity_report", "global_connectivity",
    "isolated_counts",
]


@dataclass(frozen=True)
class ConnectivityReport:
    """Outcome of the Definition-2 check over a transition.

    Attributes
    ----------
    connected : bool
        The paper's ``C`` as a boolean.
    first_failure_time : float or None
        Earliest evaluated instant at which some robot lost its path to
        the boundary anchors (a jump time when only the left-sided
        limit there fails).
    max_isolated : int
        Largest number of simultaneously isolated robots at any instant.
    samples : int
        Number of instants evaluated, right-sided and left-sided.
    left_limit_isolated : int
        Largest isolated count over the left-sided limits alone.
    """

    connected: bool
    first_failure_time: float | None
    max_isolated: int
    samples: int
    left_limit_isolated: int = 0

    @property
    def as_flag(self) -> str:
        """Table-I style "Y"/"N" rendering."""
        return "Y" if self.connected else "N"


def isolated_counts(
    trajectory: SwarmTrajectory,
    comm_range: float,
    anchors,
    times,
    *,
    side: str = "right",
    alive_until=None,
) -> np.ndarray:
    """Isolated robots at each of ``times`` (``side``-limits at jumps).

    ``anchors`` are the boundary robot indices (``None``/empty: plain
    connectivity).  ``alive_until`` holds per-robot crash times (``inf``
    = never); robot ``j`` is present at ``t`` iff ``t < alive_until[j]``,
    and absent robots neither count nor relay.  Returns a ``(k,)`` int
    array.
    """
    ts = np.asarray(times, dtype=float)
    n = trajectory.robot_count
    is_anchor = np.zeros(n, dtype=bool)
    if anchors is not None:
        for a in (int(a) for a in anchors):
            if not 0 <= a < n:
                raise GeometryError(f"anchor {a} out of range")
            is_anchor[a] = True
    if alive_until is not None:
        alive_until = np.asarray(alive_until, dtype=float)
        if alive_until.shape != (n,):
            raise GeometryError(f"alive_until must have shape ({n},)")
    counts = np.zeros(len(ts), dtype=int)
    if len(ts) == 0:
        return counts
    table = trajectory.positions_over(ts, side=side)
    all_anchors = np.flatnonzero(is_anchor).tolist()
    for k, t in enumerate(ts):
        snapshot, local = table[k], all_anchors
        if alive_until is not None:
            present = t < alive_until
            if not present.any():
                continue
            snapshot = snapshot[present]
            local = np.flatnonzero(is_anchor[present]).tolist()
        graph = UnitDiskGraph(snapshot, comm_range)
        if local:
            counts[k] = int((~graph.nodes_connected_to(local)).sum())
        else:
            counts[k] = graph.node_count - len(graph.components[0])
    return counts


def global_connectivity(
    trajectory: SwarmTrajectory,
    comm_range: float,
    boundary_anchors=None,
    resolution: int = 32,
) -> bool:
    """Definition 2's ``C`` as a boolean."""
    return connectivity_report(
        trajectory, comm_range, boundary_anchors, resolution
    ).connected


def connectivity_report(
    trajectory: SwarmTrajectory,
    comm_range: float,
    boundary_anchors=None,
    resolution: int = 32,
) -> ConnectivityReport:
    """Definition 2 at ``sample_times(resolution)`` plus jump left-limits.

    ``boundary_anchors`` are the robot indices forming the network
    boundary; ``None`` requires plain connectivity of the whole graph.
    """
    anchors = None if boundary_anchors is None else [int(a) for a in boundary_anchors]
    right = trajectory.sample_times(resolution)
    left = trajectory.discontinuity_times()
    right_counts = isolated_counts(trajectory, comm_range, anchors, right)
    left_counts = isolated_counts(trajectory, comm_range, anchors, left, side="left")
    times = np.concatenate([right, left])
    counts = np.concatenate([right_counts, left_counts])
    failed = counts > 0
    return ConnectivityReport(
        connected=not failed.any(),
        first_failure_time=float(times[failed].min()) if failed.any() else None,
        max_isolated=int(counts.max(initial=0)),
        samples=len(times),
        left_limit_isolated=int(left_counts.max(initial=0)),
    )
