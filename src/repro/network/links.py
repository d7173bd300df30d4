"""Link bookkeeping: stable links, broken links, churn.

Definition 1 of the paper scores a transition by its *total stable link
ratio*: the fraction of M1 communication links that stay connected for
the entire transition.  :class:`LinkTable` captures the initial link
set and offers the set operations the metric (and the rotation-angle
search) needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_points, expand_ragged
from repro.network.udg import UnitDiskGraph, udg_edges

__all__ = ["LinkTable", "links_alive", "links_alive_throughout"]

# An instant at least this share of the robots have a row at is tested
# as one snapshot of the swarm (n positions, m links), which is cheaper
# than link by link (one entry per link of each robot with a row there).
_SWARM_SHARE = 1 / 8

# Robot or link cells of one block of whole-swarm snapshots, so the
# ``(block, n, 2)`` positions and ``(block, m)`` temporaries stay small.
_SNAPSHOT_CELLS = 2**15


def links_alive(links: np.ndarray, positions, comm_range: float) -> np.ndarray:
    """Boolean mask: which of ``links`` are within range at ``positions``.

    Parameters
    ----------
    links : (m, 2) int array
        Node-index pairs.
    positions : (n, 2) or (k, n, 2) array-like
        One snapshot, or ``k`` stacked snapshots of the same robots.
    comm_range : float

    Returns
    -------
    (m,) or (k, m) bool ndarray
        ``hypot(dx, dy) <= comm_range`` per link (and snapshot): the
        predicate :func:`~repro.network.udg.udg_edges` applies to every
        pair, so a link is up here exactly when it is a graph edge.
    """
    links = np.asarray(links, dtype=int).reshape(-1, 2)
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 3:
        pts = as_points(pts)
    elif pts.shape[-1] != 2 or not np.isfinite(pts).all():
        raise GeometryError(
            f"expected finite (k, n, 2) stacked positions, got shape {pts.shape}"
        )
    x, y = pts[..., 0], pts[..., 1]
    a, b = links[:, 0], links[:, 1]
    # In place, so a block of snapshots holds few ``(k, m)`` temporaries.
    dx = x[..., a]
    dx -= x[..., b]
    dy = y[..., a]
    dy -= y[..., b]
    return np.hypot(dx, dy, out=dx) <= comm_range


@dataclass(frozen=True)
class LinkTable:
    """The communication links of a swarm at the start of a transition.

    Attributes
    ----------
    links : (m, 2) int ndarray
        Initial links (``i < j``), the denominator population of the
        stable-link ratio.
    comm_range : float
    """

    links: np.ndarray
    comm_range: float

    @classmethod
    def from_positions(cls, positions, comm_range: float) -> "LinkTable":
        """Capture all links of the unit-disk graph at ``positions``."""
        return cls(
            links=udg_edges(positions, comm_range), comm_range=float(comm_range)
        )

    @classmethod
    def from_graph(cls, graph: UnitDiskGraph) -> "LinkTable":
        return cls(links=graph.edges, comm_range=graph.comm_range)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def alive_mask(self, positions) -> np.ndarray:
        """Which initial links are in range at ``positions``."""
        return links_alive(self.links, positions, self.comm_range)

    def surviving_fraction(self, positions) -> float:
        """Fraction of initial links in range at ``positions`` (1.0 if none)."""
        if self.link_count == 0:
            return 1.0
        return float(self.alive_mask(positions).mean())


def links_alive_throughout(links: LinkTable, trajectory) -> np.ndarray:
    """Which links stay in range at every instant of a transition (Definition 1).

    Between consecutive row times of either of a link's two robots both
    move linearly, so their distance is convex there and peaks at an
    end.  A link is therefore tested, from the right, at ``t_start``,
    ``t_end`` and every row time of either robot inside the interval
    (kept as :meth:`~repro.robots.motion.SwarmTrajectory.critical_times`
    keeps them), and from the left at every jump of either robot.  An
    instant many robots have a row at is tested once for the whole
    swarm; any other row only for its own robot's links, its partner's
    row found by offset arithmetic.  Either way a link costs about its
    own robots' rows, not every instant of the swarm.

    Parameters
    ----------
    links : LinkTable
    trajectory : SwarmTrajectory

    Returns
    -------
    (m,) bool ndarray
    """
    return _alive_throughout(links, trajectory)[0]


def _alive_throughout(links: LinkTable, trajectory) -> tuple[np.ndarray, int, int]:
    """:func:`links_alive_throughout`'s mask, its link-row evaluations and
    the jump rows it took left-sided limits at."""
    n, m = trajectory.robot_count, links.link_count
    instants, rank = trajectory.instants, trajectory.row_instants
    # Each robot's row instants inside the interval, once each.
    own = trajectory.in_interval(trajectory.times)
    own[:-1] &= (rank[1:] != rank[:-1]) | (np.diff(trajectory.row_robots) != 0)
    swarm = np.bincount(rank[own], minlength=len(instants)) >= _SWARM_SHARE * n
    swarm[np.searchsorted(instants, [trajectory.t_start, trajectory.t_end])] = True
    alive = np.ones(m, dtype=bool)
    snapshots = instants[swarm]
    size = max(1, _SNAPSHOT_CELLS // max(n, m))
    for lo in range(0, len(snapshots), size):
        table = trajectory.positions_over(snapshots[lo:lo + size])
        alive &= links.alive_mask(table).all(axis=0)
    own &= ~swarm[rank]
    jumps = trajectory.jump_rows
    jumps = jumps[trajectory.in_interval(trajectory.times[jumps])]
    rows = m * len(snapshots)
    rows += _clear_broken(links, trajectory, np.flatnonzero(own), "right", alive)
    rows += _clear_broken(links, trajectory, jumps, "left", alive)
    return alive, rows, len(jumps)


def _clear_broken(links, trajectory, picked, side, alive) -> int:
    """Clear ``alive`` where a link is out of range at the instant of a
    picked row of either robot, from ``side``.

    Returns the number of link-row evaluations.
    """
    owner = trajectory.row_robots[picked]
    t = trajectory.times[picked]
    count = np.bincount(owner, minlength=trajectory.robot_count)
    start = np.cumsum(count) - count
    mine = trajectory.positions_of(owner, t, side)
    # Each link's entries: robot a's picked rows, then robot b's.
    pairs = np.asarray(links.links, dtype=np.int64).reshape(-1, 2)
    me, you = pairs.T.reshape(-1), pairs[:, ::-1].T.reshape(-1)
    entry = expand_ragged(start[me], count[me])
    d = np.take(mine, entry, axis=0)
    d -= trajectory.positions_of(np.repeat(you, count[me]), t[entry], side)
    far = np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) > links.comm_range)
    if len(far):
        link = np.searchsorted(np.cumsum(count[me]), far, side="right")
        alive[link % len(pairs)] = False
    return len(entry)
