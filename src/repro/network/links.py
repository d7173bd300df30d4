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
from repro.geometry.vec import as_points
from repro.network.udg import UnitDiskGraph, udg_edges

__all__ = ["LinkTable", "links_alive"]

# Link-snapshot cells :meth:`LinkTable.stable_mask_over` tests in one
# vectorised call: many snapshots of a small table, one of a huge one,
# so the ``(block, m)`` temporaries stay near 256 KB each.
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

    def stable_mask_over(self, snapshots) -> np.ndarray:
        """Links alive at *every* snapshot of positions.

        Parameters
        ----------
        snapshots : (k, n, 2) array or iterable of (n, 2) arrays
            Position samples over the transition, in time order, tested
            a block of snapshots per call.

        Returns
        -------
        (m,) bool ndarray
        """
        if not isinstance(snapshots, np.ndarray):
            snapshots = np.array([as_points(pos) for pos in snapshots])
        stable = np.ones(self.link_count, dtype=bool)
        size = max(1, _SNAPSHOT_CELLS // max(1, self.link_count))
        for start in range(0, len(snapshots), size):
            stable &= self.alive_mask(snapshots[start:start + size]).all(axis=0)
            if not stable.any():
                break
        return stable

    def stable_link_ratio_over(self, snapshots) -> float:
        """Definition 1's ``L`` evaluated over sampled snapshots.

        ``L = (# links alive at all samples) / (# initial links)``.
        Note the definition's double sum counts each link once per
        endpoint in both numerator and denominator, so the factor of
        two cancels and the ratio of undirected counts is identical.
        """
        if self.link_count == 0:
            return 1.0
        return float(self.stable_mask_over(snapshots).mean())
