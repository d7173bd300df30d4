"""Unit-disk communication graphs.

Robots are "connected" exactly when their Euclidean distance is at most
the communication range ``r_c`` (disk model, Sec. II).  The
:class:`UnitDiskGraph` snapshot is the basis for neighbour queries,
link bookkeeping and connectivity checks throughout the library.

Edge construction takes its candidate pairs from
:func:`repro.geometry.vec.neighbor_pairs` (one KD-tree ``query_pairs``
call at a range widened by ``1e-9``), a superset of the in-range pairs,
so time and memory scale with the *output* size instead of ``n^2``.
Each candidate is then decided by the exact predicate: squared distance
away from ``comm_range**2``, the oracle's ``hypot`` within a narrow band
around it.  The dense-distance-matrix construction it replaced is the
test oracle (``tests/network_oracle.py``); both return
bitwise-identical edge arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_points, neighbor_pairs
from repro.network.graphs import (
    adjacency_from_csr,
    component_labels,
    components_largest_first,
    csr_from_edges,
)

__all__ = ["UnitDiskGraph", "udg_edges"]

_EMPTY_EDGES = np.zeros((0, 2), dtype=int)

# Pairs whose squared distance falls within this relative band around
# ``comm_range**2`` are re-tested with the oracle's exact
# ``hypot(dx, dy) <= comm_range`` predicate; everything else is decided
# on the squared distance alone (no sqrt).  The band is far wider than
# the few-ulp disagreement possible between the two predicates.
_BAND = 1e-9


def udg_edges(positions, comm_range: float) -> np.ndarray:
    """All undirected links ``(i, j)`` with ``i < j`` within ``comm_range``.

    Returns an ``(m, 2)`` int array (empty when no pair is in range),
    rows sorted.  Candidates come from :func:`neighbor_pairs` -
    ``O(n log n + candidates)`` time and memory - and the result is
    bitwise-identical to the dense distance-matrix oracle: candidate
    pairs are filtered on squared distance (no sqrt), with a narrow
    band around ``comm_range**2`` re-tested using the oracle's exact
    ``hypot`` predicate.  At a range whose square underflows the
    relative band means nothing, so every candidate is re-tested there.
    """
    pts = as_points(positions)
    if comm_range <= 0:
        raise GeometryError("communication range must be positive")
    if len(pts) < 2:
        return _EMPTY_EDGES.copy()
    i, j = neighbor_pairs(pts, comm_range)
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    d2 = dx * dx + dy * dy
    r2 = comm_range * comm_range
    within = d2 <= r2 * (1.0 - _BAND)
    band = ~within & (d2 <= r2 * (1.0 + _BAND))
    if r2 < np.finfo(float).tiny:
        band[:] = True
    if band.any():
        within[band] = np.hypot(dx[band], dy[band]) <= comm_range
    i = i[within]
    j = j[within]
    order = np.lexsort((j, i))
    return np.column_stack([i[order], j[order]]).astype(int)


class UnitDiskGraph:
    """Snapshot of the swarm's communication graph at one instant.

    Parameters
    ----------
    positions : (n, 2) array-like
        Robot positions.
    comm_range : float
        Communication range ``r_c`` (same for all robots, Sec. II).
    """

    def __init__(self, positions, comm_range: float) -> None:
        self.positions = as_points(positions)
        if comm_range <= 0:
            raise GeometryError("communication range must be positive")
        self.comm_range = float(comm_range)

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected links as an ``(m, 2)`` int array with ``i < j``."""
        return udg_edges(self.positions, self.comm_range)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The links as a frozenset of ``(i, j)`` tuples with ``i < j``."""
        return frozenset((int(i), int(j)) for i, j in self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form ``(indptr, indices)``, neighbours ascending."""
        return csr_from_edges(self.node_count, self.edges)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Per-node sorted neighbour lists."""
        return adjacency_from_csr(*self.csr)

    def neighbors(self, i: int) -> list[int]:
        """Nodes within communication range of node ``i``."""
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, i: int, j: int) -> bool:
        a, b = (i, j) if i < j else (j, i)
        return (a, b) in self.edge_set

    @cached_property
    def _labels(self) -> np.ndarray:
        """Component label per node, numbered by each component's lowest node."""
        return component_labels(self.node_count, self.edges)

    @cached_property
    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, largest first."""
        return components_largest_first(self._labels)

    def is_connected(self) -> bool:
        """Whether all nodes form a single component."""
        return not self._labels.any()

    def nodes_connected_to(self, anchors) -> np.ndarray:
        """Boolean mask of nodes with a path to any node in ``anchors``.

        This implements Definition 2's reachability test: a robot
        counts as globally connected when a multi-hop path to the
        network boundary (the anchor set) exists.
        """
        anchors = np.fromiter((int(a) for a in anchors), dtype=np.int64)
        bad = anchors[(anchors < 0) | (anchors >= self.node_count)]
        if bad.size:
            raise GeometryError(f"anchor {int(bad[0])} out of range")
        return np.isin(self._labels, self._labels[anchors])
