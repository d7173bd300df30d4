"""Global connectivity ``C`` over a transition (paper Definition 2).

A transition has ``C = 1`` when, at every instant, every robot has a
multi-hop communication path to the network boundary (the robots on the
outer boundary loop of the extracted triangulation ``T``).
:func:`isolated_counts` is the package's one evaluator of that
predicate.  With no anchors - ``None``, empty, or none left once absent
robots are dropped - it degrades to plain graph connectivity, the same
predicate whenever the anchors are a non-empty subset of the swarm.
:func:`connectivity_report` evaluates it at the right-sided
``sample_times`` plus the left-sided limit at every jump in
``discontinuity_times``.

Witness law: if every link of one spanning tree of the present robots
is up under the unit-disk predicate (``hypot <= r``, the test
:func:`~repro.network.udg.udg_edges` applies to every pair), the graph
is connected, so no robot is isolated, with anchors or without.  A
connected instant that is evaluated in full therefore seeds a witness
(:func:`~repro.network.graphs.spanning_tree` of its links), and the
instants after it with the same present robots test only those
``n - 1`` links, a block at a time; the first one where a tree link is
down, or the present set changes, gets a full graph again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.network.graphs import spanning_tree
from repro.network.links import links_alive
from repro.network.udg import UnitDiskGraph
from repro.obs import span
from repro.robots.motion import SwarmTrajectory

__all__ = [
    "ConnectivityReport", "connectivity_report", "global_connectivity",
    "isolated_counts",
]

# Instants whose witness links are tested in one vectorised call.
_WITNESS_BLOCK = 32
# Instants whose positions are fetched from the trajectory at once, so
# memory stays O(n) however many instants are evaluated.  Every sampler
# over a whole transition reads this one constant.
_POSITION_BLOCK = 64


def _position_blocks(trajectory: SwarmTrajectory, times, side: str = "right"):
    """``trajectory.positions_over(times, side)`` in consecutive tables of
    at most ``_POSITION_BLOCK`` instants each."""
    for lo in range(0, len(times), _POSITION_BLOCK):
        yield trajectory.positions_over(times[lo:lo + _POSITION_BLOCK], side=side)


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

    An instant is evaluated in full (one unit-disk graph) unless the
    spanning-tree witness of the last full evaluation still holds at it:
    same present robots, every tree link up.  Then it is connected and
    its count is 0.
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
    with span("metrics.connectivity", samples=len(ts)) as sp:
        graphs = certified = 0
        # Instants share a present set exactly when they share the
        # number of crash times at or before them.
        epoch = (
            np.zeros(len(ts), dtype=int) if alive_until is None
            else np.searchsorted(np.sort(alive_until), ts, side="right")
        )
        all_anchors = np.flatnonzero(is_anchor).tolist()
        tree, tree_epoch, k, lo, end = None, None, 0, 0, 0
        while k < len(ts):
            if k == end:
                lo, end = k, min(k + _POSITION_BLOCK, len(ts))
                table = trajectory.positions_over(ts[lo:end], side=side)
            if tree is not None and epoch[k] == tree_epoch:
                stop = k + _leading(epoch[k:min(k + _WITNESS_BLOCK, end)] == tree_epoch)
                held = _leading(
                    links_alive(tree, table[k - lo:stop - lo], comm_range).all(axis=1)
                )
                certified += held
                k += held
                if k < stop:
                    tree = None
                continue
            tree = None
            snapshot, local, present = table[k - lo], all_anchors, None
            if alive_until is not None:
                present = np.flatnonzero(ts[k] < alive_until)
                if not len(present):
                    k += 1
                    continue
                snapshot = snapshot[present]
                local = np.flatnonzero(is_anchor[present]).tolist()
            graph = UnitDiskGraph(snapshot, comm_range)
            graphs += 1
            if local:
                counts[k] = int((~graph.nodes_connected_to(local)).sum())
            else:
                counts[k] = graph.node_count - len(graph.components[0])
            if (k + 1 < len(ts) and epoch[k + 1] == epoch[k]
                    and graph.is_connected()):
                tree, tree_epoch = _witness(graph), epoch[k]
                if present is not None:
                    tree = present[tree]
            k += 1
        sp.set_attributes(graphs=graphs, certified=certified)
    return counts


def _leading(mask: np.ndarray) -> int:
    """Length of the all-true prefix of a boolean vector."""
    return len(mask) if mask.all() else int(np.argmin(mask))


def _witness(graph: UnitDiskGraph) -> np.ndarray:
    """A spanning tree of a connected graph's links, longest link minimised."""
    e = graph.edges
    d = graph.positions[e[:, 0]] - graph.positions[e[:, 1]]
    return spanning_tree(graph.node_count, e, np.hypot(d[:, 0], d[:, 1]))


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
