"""Line-segment primitives: intersection, projection, distances.

These are the workhorse predicates used by polygon clipping, hole-detour
path planning and mesh validation.  All predicates take raw coordinate
pairs (anything coercible by :func:`repro.geometry.vec.as_point`) so
they compose freely with numpy code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.vec import as_point, cross2

__all__ = [
    "orientation",
    "on_segment",
    "segments_intersect",
    "segment_intersection_point",
    "project_point_on_segment",
    "point_segment_distance",
    "points_segments_distance",
    "segments_properly_cross",
]

_EPS = 1e-12


def orientation(a, b, c) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns
    -------
    int
        ``+1`` for counter-clockwise, ``-1`` for clockwise, ``0`` for
        collinear (within a relative tolerance).
    """
    a = as_point(a)
    b = as_point(b)
    c = as_point(c)
    val = cross2(b - a, c - a)
    scale = max(
        1.0,
        abs(b[0] - a[0]) + abs(b[1] - a[1]),
        abs(c[0] - a[0]) + abs(c[1] - a[1]),
    )
    if abs(val) <= _EPS * scale * scale:
        return 0
    return 1 if val > 0 else -1


def on_segment(p, a, b, tol: float = 1e-9) -> bool:
    """Whether point ``p`` lies on the closed segment ``[a, b]``."""
    return point_segment_distance(p, a, b) <= tol


def segments_intersect(a1, a2, b1, b2) -> bool:
    """Whether closed segments ``[a1, a2]`` and ``[b1, b2]`` intersect.

    Touching endpoints and collinear overlaps count as intersections.
    """
    o1 = orientation(a1, a2, b1)
    o2 = orientation(a1, a2, b2)
    o3 = orientation(b1, b2, a1)
    o4 = orientation(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(b1, a1, a2):
        return True
    if o2 == 0 and on_segment(b2, a1, a2):
        return True
    if o3 == 0 and on_segment(a1, b1, b2):
        return True
    if o4 == 0 and on_segment(a2, b1, b2):
        return True
    return False


def segments_properly_cross(a1, a2, b1, b2) -> bool:
    """Whether the two segments cross at a single interior point.

    Shared endpoints and collinear overlaps do *not* count.  This is the
    predicate used to detect edge crossings in extracted triangulations.
    """
    o1 = orientation(a1, a2, b1)
    o2 = orientation(a1, a2, b2)
    o3 = orientation(b1, b2, a1)
    o4 = orientation(b1, b2, a2)
    return o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0 and o1 != o2 and o3 != o4


def segment_intersection_point(a1, a2, b1, b2) -> Optional[np.ndarray]:
    """Intersection point of two segments, or ``None``.

    For collinear overlapping segments an arbitrary shared point is
    returned.  For disjoint segments returns ``None``.
    """
    a1 = as_point(a1)
    a2 = as_point(a2)
    b1 = as_point(b1)
    b2 = as_point(b2)
    d1 = a2 - a1
    d2 = b2 - b1
    denom = cross2(d1, d2)
    if abs(denom) > _EPS * max(1.0, float(np.abs(d1).sum() * np.abs(d2).sum())):
        t = cross2(b1 - a1, d2) / denom
        u = cross2(b1 - a1, d1) / denom
        if -1e-12 <= t <= 1.0 + 1e-12 and -1e-12 <= u <= 1.0 + 1e-12:
            return a1 + np.clip(t, 0.0, 1.0) * d1
        return None
    # Parallel.  Check collinear overlap.
    if orientation(a1, a2, b1) != 0:
        return None
    for p in (b1, b2):
        if on_segment(p, a1, a2):
            return np.asarray(p, dtype=float)
    for p in (a1, a2):
        if on_segment(p, b1, b2):
            return np.asarray(p, dtype=float)
    return None


def project_point_on_segment(p, a, b) -> np.ndarray:
    """Closest point to ``p`` on the closed segment ``[a, b]``."""
    p = as_point(p)
    a = as_point(a)
    b = as_point(b)
    d = b - a
    denom = float(d @ d)
    if denom < _EPS:
        # Too short to project onto: take the nearer endpoint.
        pa, pb = p - a, p - b
        return (b if pb @ pb < pa @ pa else a).copy()
    t = float(np.clip((p - a) @ d / denom, 0.0, 1.0))
    return a + t * d


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from point ``p`` to the closed segment ``[a, b]``."""
    q = project_point_on_segment(p, a, b)
    p = as_point(p)
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def points_segments_distance(points, seg_starts, seg_ends) -> np.ndarray:
    """Distances from many points to many closed segments, vectorised.

    Parameters
    ----------
    points : (m, 2) array-like
    seg_starts, seg_ends : (k, 2) array-like
        Segment endpoints.

    Returns
    -------
    (m, k) ndarray
        ``out[i, j]`` is the distance from ``points[i]`` to segment ``j``.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.asarray(seg_starts, dtype=float).reshape(-1, 2)
    b = np.asarray(seg_ends, dtype=float).reshape(-1, 2)
    d = b - a  # (k, 2)
    denom = (d * d).sum(axis=1)  # (k,)
    safe = np.where(denom < _EPS, 1.0, denom)
    # t[i, j] = clamp(((p_i - a_j) . d_j) / |d_j|^2, 0, 1)
    pa = p[:, None, :] - a[None, :, :]  # (m, k, 2)
    t = (pa * d[None, :, :]).sum(axis=2) / safe[None, :]
    t = np.where(denom[None, :] < _EPS, 0.0, np.clip(t, 0.0, 1.0))
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = p[:, None, :] - proj
    return np.hypot(diff[..., 0], diff[..., 1])
