"""Scalar references for the batch geometry kernels.

* Per-edge loops for ``repro.geometry.edges``: each function is the
  scalar or one-polygon-at-a-time loop that ``Polygon`` and
  ``FieldOfInterest`` ran before their queries moved onto the flat edge
  table.  The table's verdicts, distances and projections must equal
  these bitwise.
* Per-point rules for ``TriangleLocator.locate_many`` /
  ``locate_nearest_many`` and ``InducedMap.map_points``: one query
  point at a time, brute force over every triangle.  The batch results
  must equal these bitwise.
"""

import numpy as np

from repro.errors import MappingError
from repro.geometry.segment import (
    points_segments_distance,
    project_point_on_segment,
    segments_properly_cross,
)
from repro.geometry.vec import _nearest_index_dense, as_point, as_points


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


def crossing_loops(loops):
    """First pair of loops (by edge order) with properly crossing edges."""
    edges = [
        (k, v[i], v[(i + 1) % len(v)])
        for k, v in enumerate(loops)
        for i in range(len(v))
    ]
    for i, (ki, a1, a2) in enumerate(edges):
        for kj, b1, b2 in edges[i + 1:]:
            if ki != kj and segments_properly_cross(a1, a2, b1, b2):
                return ki, kj
    return None


def barycentric_many(p, tri_a, tri_b, tri_c):
    """One point against many triangles, ``nan`` rows for degenerate ones."""
    p = as_point(p)
    a, b, c = as_points(tri_a), as_points(tri_b), as_points(tri_c)
    area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (
            (b[:, 0] - p[0]) * (c[:, 1] - p[1]) - (b[:, 1] - p[1]) * (c[:, 0] - p[0])
        ) / area2
        t2 = (
            (p[0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (p[1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        ) / area2
    t1 = np.where(np.abs(area2) < 1e-300, np.nan, t1)
    t2 = np.where(np.abs(area2) < 1e-300, np.nan, t2)
    return np.column_stack([t1, t2, 1.0 - t1 - t2])


def _corners(vertices, triangles):
    v, t = as_points(vertices), np.asarray(triangles, dtype=int)
    return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]


def locate(vertices, triangles, point, tol=1e-9):
    """``(triangle, barycentric)`` of the most interior triangle holding
    ``point`` (the lowest index on ties), or ``None``."""
    bary = barycentric_many(point, *_corners(vertices, triangles))
    ok = np.all(bary >= -tol, axis=1) & ~np.any(np.isnan(bary), axis=1)
    hits = np.flatnonzero(ok)
    if len(hits) == 0:
        return None
    best = hits[np.argmax(bary[hits].min(axis=1))]
    return int(best), bary[best]


def locate_nearest(vertices, triangles, point):
    """:func:`locate`, or on a miss the triangle with the nearest centroid
    (least squared distance, lowest index on ties) with its barycentric
    coordinates clamped to the simplex and renormalised."""
    hit = locate(vertices, triangles, point)
    if hit is not None:
        return hit
    p = as_point(point)
    a, b, c = _corners(vertices, triangles)
    t = int(_nearest_index_dense(p[None, :], (a + b + c) / 3.0)[0])
    bary = barycentric_many(p, a[t:t + 1], b[t:t + 1], c[t:t + 1])[0]
    if np.any(np.isnan(bary)):
        bary = np.array([1.0, 0.0, 0.0])
    bary = np.clip(bary, 0.0, None)
    s = bary.sum()
    return t, (bary / s if s > 0 else np.array([1.0, 0.0, 0.0]))


def map_point(disk_map, disk_point):
    """Geographic image of one disk point under the induced map: drop
    virtual corners and renormalise; on a virtual vertex itself, the
    nearest real corner by disk distance (the first on ties)."""
    filled = disk_map.filled
    geo = np.zeros((filled.mesh.vertex_count, 2))
    geo[: filled.original_vertex_count] = disk_map.source.vertices
    hole_centres = np.asarray(filled.virtual_vertices, dtype=int)
    geo[hole_centres] = filled.mesh.vertices[hole_centres]
    tri, bary = locate_nearest(disk_map.disk_positions, filled.mesh.triangles, disk_point)
    corners = filled.mesh.triangles[tri]
    weights = np.asarray(bary, dtype=float).copy()
    virtual = filled.is_virtual[corners]
    if virtual.any():
        weights[virtual] = 0.0
        s = weights.sum()
        if s <= 1e-12:
            real = corners[~virtual]
            if len(real) == 0:
                raise MappingError("triangle with no real corner")
            dp = disk_map.disk_positions[real] - np.asarray(disk_point)
            return geo[real[int(np.argmin(np.hypot(dp[:, 0], dp[:, 1])))]].copy()
        weights = weights / s
    return (weights[:, None] * geo[corners]).sum(axis=0)
