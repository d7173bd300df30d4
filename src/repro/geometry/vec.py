"""Low-level vector helpers shared by the geometry kernel.

All geometry in this library lives in the plane.  Points are represented
as numpy arrays of shape ``(2,)`` and point sets as arrays of shape
``(n, 2)`` with ``float64`` dtype.  The helpers here normalise inputs to
that convention and provide the handful of numeric primitives (cross
products, distances, rotations) that the higher level modules build on.

This is also the one spatial-query module: every KD-tree in the
library is built here, by :func:`nearest_index` (nearest site per
point) and :func:`neighbor_pairs` (candidate pairs within a radius).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import GeometryError

__all__ = [
    "as_point",
    "as_points",
    "cross2",
    "dot2",
    "norm",
    "normalize",
    "distance",
    "pairwise_distances",
    "rotate",
    "rotation_matrix",
    "perpendicular",
    "lerp",
    "polyline_length",
    "angle_of",
    "expand_ragged",
    "nearest_index",
    "neighbor_pairs",
]

# A KD-tree's two candidates decide a point's nearest site only when the
# runner-up's squared distance exceeds the winner's by more than this
# relative band - far wider than the few-ulp disagreement between the
# tree's distances and the oracle's.  Anything closer is a (near-)tie.
_NEAREST_BAND = 1e-9

# ``neighbor_pairs`` asks the KD-tree for pairs within the radius
# widened by this relative slack, so that the tree's own distance
# rounding can never drop a pair the caller's exact test would keep.
_PAIR_SLACK = 1e-9

# Rows handed to the dense oracle are processed in chunks of about this
# many point-site pairs, so a tie-heavy input never materialises the
# full point x site matrix.
_DENSE_PAIRS = 1 << 20


def as_point(p) -> np.ndarray:
    """Coerce ``p`` to a ``float64`` array of shape ``(2,)``.

    Raises
    ------
    GeometryError
        If ``p`` cannot be interpreted as a single 2-D point.
    """
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise GeometryError(f"expected a 2-D point, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"point contains non-finite coordinates: {arr}")
    return arr


def as_points(pts) -> np.ndarray:
    """Coerce ``pts`` to a ``float64`` array of shape ``(n, 2)``.

    An empty input yields an array of shape ``(0, 2)`` so downstream
    vectorised code works uniformly.
    """
    arr = np.asarray(pts, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("point array contains non-finite coordinates")
    return arr


def cross2(a, b) -> float:
    """Scalar 2-D cross product ``a.x * b.y - a.y * b.x``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])


def dot2(a, b) -> float:
    """Dot product of two 2-D vectors as a Python float."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])


def norm(v) -> float:
    """Euclidean norm of a 2-D vector."""
    v = np.asarray(v, dtype=float)
    return float(np.hypot(v[..., 0], v[..., 1]))


def normalize(v) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Raises
    ------
    GeometryError
        If ``v`` is (numerically) the zero vector.
    """
    v = as_point(v)
    n = norm(v)
    if n < 1e-300:
        raise GeometryError("cannot normalize the zero vector")
    return v / n


def distance(a, b) -> float:
    """Euclidean distance between two points."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def pairwise_distances(pts_a, pts_b=None) -> np.ndarray:
    """Dense matrix of Euclidean distances between two point sets.

    Parameters
    ----------
    pts_a : (n, 2) array-like
    pts_b : (m, 2) array-like, optional
        Defaults to ``pts_a`` (self-distances).

    Returns
    -------
    (n, m) ndarray
    """
    a = as_points(pts_a)
    b = a if pts_b is None else as_points(pts_b)
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def rotation_matrix(theta: float) -> np.ndarray:
    """2x2 counter-clockwise rotation matrix for angle ``theta`` (radians)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotate(pts, theta: float, center=(0.0, 0.0)) -> np.ndarray:
    """Rotate points counter-clockwise by ``theta`` radians about ``center``.

    Accepts a single point or an ``(n, 2)`` array and preserves the shape.
    """
    arr = np.asarray(pts, dtype=float)
    single = arr.ndim == 1
    pts2 = as_points(arr[None, :] if single else arr)
    c = as_point(center)
    rotated = (pts2 - c) @ rotation_matrix(theta).T + c
    return rotated[0] if single else rotated


def perpendicular(v) -> np.ndarray:
    """The vector ``v`` rotated by +90 degrees."""
    v = as_point(v)
    return np.array([-v[1], v[0]])


def lerp(a, b, t: float) -> np.ndarray:
    """Linear interpolation ``(1 - t) * a + t * b``."""
    a = as_point(a)
    b = as_point(b)
    return (1.0 - t) * a + t * b


def polyline_length(pts) -> float:
    """Total length of the open polyline through ``pts`` in order."""
    arr = as_points(pts)
    if len(arr) < 2:
        return 0.0
    seg = np.diff(arr, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


def angle_of(v) -> float:
    """Angle of vector ``v`` in ``[0, 2*pi)``."""
    v = as_point(v)
    ang = float(np.arctan2(v[1], v[0]))
    return ang + 2.0 * np.pi if ang < 0 else ang


def expand_ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat index array ``[s, s+1, .., s+c-1]`` per ``(s, c)`` row."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + offsets


def _nearest_index_dense(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Dense ``O(m * n)`` nearest-site search (test oracle).

    The original assignment: the full point x site squared-distance
    matrix and its row-wise ``argmin`` (lowest index on ties).  Kept as
    the ground truth :func:`nearest_index` must match bitwise.
    """
    diff = points[:, None, :] - sites[None, :, :]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    return np.argmin(d2, axis=1)


def nearest_index(points, sites) -> np.ndarray:
    """Index of the site nearest to each point, the lowest index on ties.

    Bitwise equal to :func:`_nearest_index_dense`: the ``argmin`` of
    ``dx**2 + dy**2`` over all sites.  A KD-tree over ``sites`` only
    proposes each point's two nearest candidates; their squared
    distances are recomputed with the oracle's expression, and when the
    runner-up is farther than the winner by more than a ``1e-9``
    relative band the winner is provably the unique minimum.  The
    remaining rows - near-ties and duplicate sites - go to the dense
    oracle, a chunk of rows at a time, so time is
    ``O((m + n) log n)`` and memory ``O(m + n)`` outside tie-heavy input.
    """
    pts = as_points(points)
    st = as_points(sites)
    if len(st) == 0:
        raise GeometryError("nearest_index needs at least one site")
    if len(st) == 1:
        return np.zeros(len(pts), dtype=np.intp)
    cand = cKDTree(st).query(pts, k=2)[1]
    diff = pts[:, None, :] - st[cand]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    out = cand[:, 0]
    runner_up = d2[:, 1]
    # Relative error bounds fail at underflow and overflow scale, so
    # such rows are left to the oracle as well.
    unsure = ~(
        (runner_up > d2[:, 0] * (1.0 + _NEAREST_BAND))
        & (runner_up >= np.finfo(float).tiny)
        & np.isfinite(runner_up)
    )
    rows = np.flatnonzero(unsure)
    step = max(1, _DENSE_PAIRS // len(st))
    for k in range(0, len(rows), step):
        chunk = rows[k:k + step]
        out[chunk] = _nearest_index_dense(pts[chunk], st)
    return out


def neighbor_pairs(points, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, that may lie within ``radius``.

    A documented superset of the in-range pairs: one KD-tree
    ``query_pairs`` call at ``radius * (1 + 1e-9)``, so every pair whose
    distance is at most ``radius`` under any few-ulp evaluation is
    present, plus possibly pairs just outside.  Callers apply their own
    exact predicate to the returned pairs; time and memory are
    ``O(n log n + pairs)``.  The pairs come in no particular order.
    """
    pairs = cKDTree(as_points(points)).query_pairs(radius * (1.0 + _PAIR_SLACK), output_type="ndarray")
    return pairs[:, 0], pairs[:, 1]
