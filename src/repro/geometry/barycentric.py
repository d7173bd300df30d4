"""Barycentric coordinates on triangles (paper Appendix A).

The induced harmonic map of the paper transfers a robot's disk position
into geographic coordinates by barycentric interpolation over the grid
triangle containing it (Eqn. 1).  This module provides the forward and
inverse operations plus containment predicates, scalar and
vectorised over point-triangle pairs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.vec import as_point, as_points

__all__ = [
    "triangle_area",
    "barycentric_coords",
    "from_barycentric",
    "point_in_triangle",
    "barycentric_coords_paired",
]


def triangle_area(a, b, c) -> float:
    """Signed area of triangle ``(a, b, c)`` (positive if CCW)."""
    a = as_point(a)
    b = as_point(b)
    c = as_point(c)
    return 0.5 * float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def barycentric_coords(p, a, b, c) -> np.ndarray:
    """Barycentric coordinates ``(t1, t2, t3)`` of ``p`` in triangle ``abc``.

    Follows the area-ratio definition from the paper's appendix:
    ``t1 = Area(p, b, c) / Area(a, b, c)`` and cyclic, so
    ``p = t1*a + t2*b + t3*c`` and ``t1 + t2 + t3 = 1`` exactly (the
    third coordinate is computed as the complement for numerical
    robustness).

    Raises
    ------
    GeometryError
        If the triangle is degenerate.
    """
    p = as_point(p)
    a = as_point(a)
    b = as_point(b)
    c = as_point(c)
    area = triangle_area(a, b, c)
    scale = max(1.0, float(np.abs(np.vstack([a, b, c])).max()) ** 2)
    if abs(area) < 1e-14 * scale:
        raise GeometryError("degenerate triangle in barycentric_coords")
    t1 = triangle_area(p, b, c) / area
    t2 = triangle_area(a, p, c) / area
    t3 = 1.0 - t1 - t2
    return np.array([t1, t2, t3])


def from_barycentric(t, a, b, c) -> np.ndarray:
    """Point with barycentric coordinates ``t = (t1, t2, t3)`` in ``abc``."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise GeometryError("barycentric coordinates must have shape (3,)")
    a = as_point(a)
    b = as_point(b)
    c = as_point(c)
    return t[0] * a + t[1] * b + t[2] * c


def point_in_triangle(p, a, b, c, tol: float = 1e-9) -> bool:
    """Whether ``p`` lies inside (or on the boundary of) triangle ``abc``."""
    t = barycentric_coords(p, a, b, c)
    return bool(np.all(t >= -tol))


def barycentric_coords_paired(pts, tri_a, tri_b, tri_c) -> np.ndarray:
    """Row-wise barycentric coordinates: point ``k`` in triangle ``k``.

    The batched form for *many points, each against its own
    triangle* - the shape the vectorised point-location queries
    produce.

    Parameters
    ----------
    pts : (m, 2) array-like
    tri_a, tri_b, tri_c : (m, 2) arrays
        Corner coordinates of point ``k``'s candidate triangle.

    Returns
    -------
    (m, 3) ndarray
        Rows are ``(t1, t2, t3)``; degenerate triangles yield rows of
        ``nan`` rather than raising, so callers can mask them out.
    """
    p = as_points(pts)
    a = as_points(tri_a)
    b = as_points(tri_b)
    c = as_points(tri_c)
    if not (len(p) == len(a) == len(b) == len(c)):
        raise GeometryError("paired barycentric inputs must align row-wise")
    area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    px = p[:, 0]
    py = p[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (
            (b[:, 0] - px) * (c[:, 1] - py) - (b[:, 1] - py) * (c[:, 0] - px)
        ) / area2
        t2 = (
            (px - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (py - a[:, 1]) * (c[:, 0] - a[:, 0])
        ) / area2
    t1 = np.where(np.abs(area2) < 1e-300, np.nan, t1)
    t2 = np.where(np.abs(area2) < 1e-300, np.nan, t2)
    t3 = 1.0 - t1 - t2
    return np.column_stack([t1, t2, t3])
