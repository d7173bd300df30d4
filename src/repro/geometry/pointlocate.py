"""Batch point-in-triangle location.

The induced harmonic map must locate, for every robot, the grid
triangle of the target FoI's disk embedding that contains the robot's
(rotated) disk position (Sec. III-B), and pick the nearest grid
triangle when a robot lands outside every triangle.  A uniform bucket
grid over the triangle bounding boxes, built with vectorised numpy,
turns each query into a handful of barycentric tests;
:meth:`TriangleLocator.locate_many` and
:meth:`TriangleLocator.locate_nearest_many` answer *all* query points
of a batch in a few array operations.  Misses go to
:func:`repro.geometry.vec.nearest_index` over the triangle centroids.

There is no single-point API: the per-point rules survive only as the
test oracle, which the batch results match bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.barycentric import barycentric_coords_paired
from repro.geometry.vec import as_points, expand_ragged, nearest_index

__all__ = ["TriangleLocator"]


class TriangleLocator:
    """Uniform-grid index over a set of triangles.

    Parameters
    ----------
    points : (n, 2) array-like
        Vertex coordinates.
    triangles : (m, 3) int array-like
        Vertex indices of each triangle.

    The bucket grid has ``max(4, isqrt(m))`` buckets per axis.
    """

    def __init__(self, points, triangles) -> None:
        self.points = as_points(points)
        tris = np.asarray(triangles, dtype=int)
        if tris.size == 0:
            raise GeometryError("TriangleLocator needs at least one triangle")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise GeometryError(f"triangles must have shape (m, 3), got {tris.shape}")
        if tris.min() < 0 or tris.max() >= len(self.points):
            raise GeometryError("triangle indices out of range")
        self.triangles = tris
        self._ta = self.points[tris[:, 0]]
        self._tb = self.points[tris[:, 1]]
        self._tc = self.points[tris[:, 2]]
        self._centroids = (self._ta + self._tb + self._tc) / 3.0

        resolution = max(4, int(np.sqrt(len(tris))))
        self._res = resolution
        xs = np.stack([self._ta[:, 0], self._tb[:, 0], self._tc[:, 0]])
        ys = np.stack([self._ta[:, 1], self._tb[:, 1], self._tc[:, 1]])
        self._xmin = float(xs.min())
        self._ymin = float(ys.min())
        xmax, ymax = float(xs.max()), float(ys.max())
        self._dx = max((xmax - self._xmin) / resolution, 1e-12)
        self._dy = max((ymax - self._ymin) / resolution, 1e-12)

        # Bucket span per triangle (bounding-box overlap), expanded to
        # one (bucket, triangle) entry per covered cell - all without a
        # Python loop over triangles.
        m = len(tris)
        lo_i = np.clip(((xs.min(axis=0) - self._xmin) / self._dx).astype(int), 0, resolution - 1)
        hi_i = np.clip(((xs.max(axis=0) - self._xmin) / self._dx).astype(int), 0, resolution - 1)
        lo_j = np.clip(((ys.min(axis=0) - self._ymin) / self._dy).astype(int), 0, resolution - 1)
        hi_j = np.clip(((ys.max(axis=0) - self._ymin) / self._dy).astype(int), 0, resolution - 1)
        wi = (hi_i - lo_i + 1).astype(np.int64)
        wj = (hi_j - lo_j + 1).astype(np.int64)
        span = wi * wj
        total = int(span.sum())
        tri_ids = np.repeat(np.arange(m, dtype=np.int64), span)
        local = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(span) - span, span
        )
        wj_exp = np.repeat(wj, span)
        cell_i = np.repeat(lo_i.astype(np.int64), span) + local // wj_exp
        cell_j = np.repeat(lo_j.astype(np.int64), span) + local % wj_exp
        cell_key = cell_i * resolution + cell_j
        order = np.argsort(cell_key, kind="stable")
        sorted_keys = cell_key[order]
        self._bucket_tris = tri_ids[order]
        self._bucket_keys, self._bucket_start, self._bucket_count = np.unique(
            sorted_keys, return_index=True, return_counts=True
        )

    def locate_many(
        self, points, tol: float = 1e-9
    ) -> tuple[np.ndarray, np.ndarray]:
        """The triangle holding each query point, and its barycentrics.

        A triangle holds a point when every barycentric coordinate is
        ``>= -tol``; among the triangles of the point's bucket that hold
        it, the most interior one (largest least coordinate) wins, the
        lowest triangle index on ties - so a point on a shared edge or
        vertex is located exactly once.

        Returns
        -------
        (triangle_indices, barycentric) : ((k,) int ndarray, (k, 3) ndarray)
            Misses (outside the mesh, or in a hole) are marked with
            triangle index ``-1`` and a ``nan`` barycentric row.
        """
        pts = as_points(points)
        k = len(pts)
        tri_out = np.full(k, -1, dtype=int)
        bary_out = np.full((k, 3), np.nan)
        if k == 0:
            return tri_out, bary_out

        bi = np.clip((pts[:, 0] - self._xmin) / self._dx, 0, self._res - 1).astype(int)
        bj = np.clip((pts[:, 1] - self._ymin) / self._dy, 0, self._res - 1).astype(int)
        key = bi.astype(np.int64) * self._res + bj
        g = np.searchsorted(self._bucket_keys, key)
        g_clip = np.minimum(g, len(self._bucket_keys) - 1)
        found = self._bucket_keys[g_clip] == key
        counts = np.where(found, self._bucket_count[g_clip], 0)
        total = int(counts.sum())
        if total == 0:
            return tri_out, bary_out

        query_ids = np.repeat(np.arange(k, dtype=np.int64), counts)
        cand = self._bucket_tris[
            expand_ragged(np.where(found, self._bucket_start[g_clip], 0), counts)
        ]
        bary = barycentric_coords_paired(
            pts[query_ids], self._ta[cand], self._tb[cand], self._tc[cand]
        )
        ok = np.all(bary >= -tol, axis=1) & ~np.any(np.isnan(bary), axis=1)
        score = np.where(ok, np.where(ok[:, None], bary, 0.0).min(axis=1), -np.inf)

        # First index of the per-query maximum score: segment max, then
        # segment min of the positions attaining it (ties resolve to the
        # first candidate).
        has = counts > 0
        seg_starts = (np.cumsum(counts) - counts)[has]
        seg_max = np.maximum.reduceat(score, seg_starts)
        best_pos = np.where(
            ok & (score == np.repeat(seg_max, counts[has])),
            np.arange(total, dtype=np.int64),
            total,
        )
        first_best = np.minimum.reduceat(best_pos, seg_starts)
        hit = first_best < total
        rows = np.flatnonzero(has)[hit]
        sel = first_best[hit]
        tri_out[rows] = cand[sel]
        bary_out[rows] = bary[sel]
        return tri_out, bary_out

    def locate_nearest_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`locate_many`, but every row resolves to a triangle.

        A point that lies in no triangle takes the triangle with the
        nearest centroid (:func:`~repro.geometry.vec.nearest_index`: the
        least squared distance, the lowest index on ties), and its
        barycentric coordinates are clamped to the simplex and
        renormalised to sum to one, yielding the closest representable
        point.  This implements the paper's rule that a robot mapped
        into a hole "simply chooses the nearest grid point".

        Returns
        -------
        (triangle_indices, barycentric) : ((k,) int ndarray, (k, 3) ndarray)
        """
        pts = as_points(points)
        tri_out, bary_out = self.locate_many(pts)
        miss = np.flatnonzero(tri_out < 0)
        if len(miss) == 0:
            return tri_out, bary_out

        mp = pts[miss]
        nearest = nearest_index(mp, self._centroids)
        bary = barycentric_coords_paired(
            mp, self._ta[nearest], self._tb[nearest], self._tc[nearest]
        )
        nan_rows = np.any(np.isnan(bary), axis=1)
        bary[nan_rows] = (1.0, 0.0, 0.0)
        bary = np.clip(bary, 0.0, None)
        sums = bary.sum(axis=1)
        pos = sums > 0
        bary[pos] = bary[pos] / sums[pos, None]
        bary[~pos] = (1.0, 0.0, 0.0)
        tri_out[miss] = nearest
        bary_out[miss] = bary
        return tri_out, bary_out
