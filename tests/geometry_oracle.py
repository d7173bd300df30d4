"""Per-edge reference for the FoI geometry kernels in ``repro.geometry.edges``.

Each function is the scalar or one-polygon-at-a-time loop that
``Polygon`` and ``FieldOfInterest`` ran before their queries moved onto
the flat edge table.  The table's verdicts, distances and projections
must equal these bitwise.
"""

import numpy as np

from repro.geometry.segment import (
    points_segments_distance,
    project_point_on_segment,
    segments_properly_cross,
)
from repro.geometry.vec import as_point, as_points


def boundary_distances(poly, points):
    """Dense ``(m, edges)`` distances, minimum per point."""
    p = as_points(points)
    if len(p) == 0:
        return np.zeros(0)
    v = poly.vertices
    return points_segments_distance(p, v, np.roll(v, -1, axis=0)).min(axis=1)


def polygon_contains(poly, points, include_boundary=True):
    """Even-odd crossing test, one Python iteration per edge, plus the
    boundary band over every point."""
    p = as_points(points)
    v = poly.vertices
    x, y = p[:, 0], p[:, 1]
    inside = np.zeros(len(p), dtype=bool)
    n = len(v)
    j = n - 1
    for i in range(n):
        xi, yi = v[i]
        xj, yj = v[j]
        crosses = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= crosses & (x < x_int)
        j = i
    if include_boundary:
        tol = 1e-9 * max(1.0, poly.perimeter)
        inside |= boundary_distances(poly, p) <= tol
    return inside


def foi_contains(foi, points):
    """Inside the outer boundary (band included), outside every hole."""
    p = as_points(points)
    inside = polygon_contains(foi.outer, p, include_boundary=True)
    for hole in foi.holes:
        inside &= ~polygon_contains(hole, p, include_boundary=False)
    return inside


def foi_boundary_distances(foi, points):
    d = boundary_distances(foi.outer, points)
    for hole in foi.holes:
        d = np.minimum(d, boundary_distances(hole, points))
    return d


def hole_containing(foi, point):
    for i, hole in enumerate(foi.holes):
        if bool(polygon_contains(hole, [point], include_boundary=False)[0]):
            return i
    return None


def project_inside(foi, point):
    """The scalar projection: first nearest edge, then the checked nudge."""
    p = as_point(point)
    if bool(foi_contains(foi, [p])[0]):
        return p.copy()
    hole_idx = hole_containing(foi, p)
    poly = foi.holes[hole_idx] if hole_idx is not None else foi.outer
    best, best_d = None, float("inf")
    v = poly.vertices
    n = len(v)
    for i in range(n):
        q = project_point_on_segment(p, v[i], v[(i + 1) % n])
        d = float(np.hypot(p[0] - q[0], p[1] - q[1]))
        if d < best_d:
            best, best_d = q, d
    assert best is not None
    direction = foi.centroid - best if hole_idx is None else best - poly.centroid
    nrm = float(np.hypot(direction[0], direction[1]))
    if nrm > 1e-12:
        candidate = best + direction / nrm * 1e-6 * max(1.0, np.sqrt(foi.area))
        if bool(foi_contains(foi, [candidate])[0]):
            return candidate
    return best


def is_simple(poly):
    """Every non-adjacent edge pair through the scalar predicate."""
    v = poly.vertices
    n = len(v)
    for i in range(n):
        a1, a2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = v[j], v[(j + 1) % n]
            if segments_properly_cross(a1, a2, b1, b2):
                return False
    return True


def is_convex(poly):
    """One turn test per vertex."""
    v = poly.vertices
    n = len(v)
    for i in range(n):
        a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
        cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cr < -1e-9 * max(1.0, poly.perimeter) ** 2:
            return False
    return True
