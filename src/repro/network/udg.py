"""Unit-disk communication graphs.

Robots are "connected" exactly when their Euclidean distance is at most
the communication range ``r_c`` (disk model, Sec. II).  The
:class:`UnitDiskGraph` snapshot is the basis for neighbour queries,
link bookkeeping and connectivity checks throughout the library.

Edge construction uses a spatial hash (uniform cell grid with cell size
equal to the communication range): only points in the same or adjacent
cells can be within range, so candidate pairs - and therefore time and
memory - scale with the *output* size instead of ``n^2``.  The old
dense-distance-matrix construction survives as
:func:`_udg_edges_bruteforce`, the oracle the property tests compare
against; both return bitwise-identical edge arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_points, expand_ragged, pairwise_distances
from repro.network.graphs import (
    adjacency_from_csr,
    component_labels,
    components_largest_first,
    csr_from_edges,
)

__all__ = ["UnitDiskGraph", "udg_edges"]

_EMPTY_EDGES = np.zeros((0, 2), dtype=int)

# Cells are widened by this relative slack so that floating-point
# rounding in ``floor((x - xmin) / cell)`` can never place two points at
# distance <= comm_range more than one cell index apart.
_CELL_SLACK = 1e-9

# Pairs whose squared distance falls within this relative band around
# ``comm_range**2`` are re-tested with the oracle's exact
# ``hypot(dx, dy) <= comm_range`` predicate; everything else is decided
# on the squared distance alone (no sqrt).  The band is far wider than
# the few-ulp disagreement possible between the two predicates.
_BAND = 1e-9


def _udg_edges_bruteforce(positions, comm_range: float) -> np.ndarray:
    """Dense ``O(n^2)`` edge construction (test oracle).

    This is the original implementation: materialises the full pairwise
    distance matrix and masks the upper triangle.  Kept as the ground
    truth the spatial-hash path must match bitwise.
    """
    pts = as_points(positions)
    if comm_range <= 0:
        raise GeometryError("communication range must be positive")
    if len(pts) < 2:
        return _EMPTY_EDGES.copy()
    d = pairwise_distances(pts)
    iu, ju = np.triu_indices(len(pts), k=1)
    mask = d[iu, ju] <= comm_range
    return np.column_stack([iu[mask], ju[mask]]).astype(int)


def _candidate_pairs(pts: np.ndarray, comm_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs from the cell grid that could be within range.

    Bins points into cells of width ``comm_range`` (plus fp slack) and
    emits every pair sharing a cell plus every pair in half-plane
    neighbouring cells - offsets (0,1), (1,-1), (1,0), (1,1) - so each
    unordered pair appears exactly once.
    """
    n = len(pts)
    cell = comm_range * (1.0 + _CELL_SLACK)
    mins = pts.min(axis=0)
    fij = np.floor((pts - mins) / cell)
    if float(np.abs(fij).max(initial=0.0)) > 2**31:
        # Degenerate spread (range tiny vs extent): grid keys would
        # overflow; almost no pairs survive anyway, brute force is safe.
        iu, ju = np.triu_indices(n, k=1)
        return iu.astype(np.int64), ju.astype(np.int64)
    ci = fij[:, 0].astype(np.int64)
    cj = fij[:, 1].astype(np.int64)
    ny = int(cj.max()) + 1
    key = ci * ny + cj

    order = np.argsort(key, kind="stable")
    skey = key[order]
    uniq, ustart, ucount = np.unique(skey, return_index=True, return_counts=True)

    pair_i: list[np.ndarray] = []
    pair_j: list[np.ndarray] = []

    # Within-cell pairs: each sorted position pairs with every later
    # position of its own cell.
    pos = np.arange(n, dtype=np.int64)
    group_of_pos = np.repeat(np.arange(len(uniq), dtype=np.int64), ucount)
    group_end = (ustart + ucount)[group_of_pos]
    later = group_end - pos - 1
    if later.sum() > 0:
        pair_i.append(np.repeat(pos, later))
        pair_j.append(expand_ragged(pos + 1, later))

    # Cross-cell pairs against the four half-plane neighbour cells.
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        if dj == 1:
            valid = cj[order] + 1 < ny
        elif dj == -1:
            valid = cj[order] >= 1
        else:
            valid = np.ones(n, dtype=bool)
        if not valid.any():
            continue
        vpos = pos[valid]
        nkey = skey[valid] + di * ny + dj
        g = np.searchsorted(uniq, nkey)
        g_clip = np.minimum(g, len(uniq) - 1)
        found = uniq[g_clip] == nkey
        if not found.any():
            continue
        vpos = vpos[found]
        g = g_clip[found]
        counts = ucount[g]
        pair_i.append(np.repeat(vpos, counts))
        pair_j.append(expand_ragged(ustart[g], counts))

    if not pair_i:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    i = order[np.concatenate(pair_i)]
    j = order[np.concatenate(pair_j)]
    return i, j


def udg_edges(positions, comm_range: float) -> np.ndarray:
    """All undirected links ``(i, j)`` with ``i < j`` within ``comm_range``.

    Returns an ``(m, 2)`` int array (empty when no pair is in range).
    Built through a spatial hash - ``O(n + candidates)`` time and
    memory - and bitwise-identical to :func:`_udg_edges_bruteforce`:
    candidate pairs are filtered on squared distance (no sqrt), with a
    narrow band around ``comm_range**2`` re-tested using the oracle's
    exact ``hypot`` predicate.
    """
    pts = as_points(positions)
    if comm_range <= 0:
        raise GeometryError("communication range must be positive")
    if len(pts) < 2:
        return _EMPTY_EDGES.copy()
    i, j = _candidate_pairs(pts, comm_range)
    if len(i) == 0:
        return _EMPTY_EDGES.copy()
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    d2 = dx * dx + dy * dy
    r2 = comm_range * comm_range
    within = d2 <= r2 * (1.0 - _BAND)
    band = ~within & (d2 <= r2 * (1.0 + _BAND))
    if band.any():
        within[band] = np.hypot(dx[band], dy[band]) <= comm_range
    i = i[within]
    j = j[within]
    if len(i) == 0:
        return _EMPTY_EDGES.copy()
    a = np.minimum(i, j)
    b = np.maximum(i, j)
    order = np.lexsort((b, a))
    return np.column_stack([a[order], b[order]]).astype(int)


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
