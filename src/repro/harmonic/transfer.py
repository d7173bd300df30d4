"""The induced map between two disk embeddings (paper Eqn. 1).

Overlaying the unit-disk embeddings of the swarm triangulation ``T``
and of the target FoI's grid mesh (after rotating one of them) induces
a map ``T -> M2``: a robot's disk position falls inside some disk-space
grid triangle, and its geographic target is the barycentric combination
of that triangle's geographic corners.

Robots that land in a *filled hole* (a fan triangle owning a virtual
vertex) have no geographic image there; following Sec. III-D3 the
virtual corner's weight is dropped and the remaining (hole-boundary)
corners are re-normalised, which lands the robot on the hole boundary -
the continuous version of "choose the nearest grid point".
"""

from __future__ import annotations

import numpy as np

from repro.errors import MappingError
from repro.geometry.vec import as_points, rotate
from repro.harmonic.diskmap import DiskMap
from repro.obs import get_metrics

__all__ = ["InducedMap"]


class InducedMap:
    """Composable map from a source disk embedding into target geography.

    Parameters
    ----------
    target : DiskMap
        Disk embedding of the target FoI's grid mesh.  The geographic
        image uses the target's *source mesh* coordinates; virtual
        (hole) vertices are handled per Sec. III-D3.

    :meth:`map_points` results are remembered per ``(points, rotation)``:
    the rotation search probes the same point set at a handful of angles
    and the planner re-reads the winning angle afterwards, so at least
    one probe per plan is a hit; hit and miss counts land in
    ``cache.induced_map.*`` metrics.
    """

    def __init__(self, target: DiskMap) -> None:
        self.target = target
        filled = target.filled
        self._is_virtual = filled.is_virtual
        self._memo: dict[tuple[bytes, float], np.ndarray] = {}
        # Geographic coordinates per filled vertex; virtual vertices get
        # their hole-centroid position only as a fallback anchor.
        geo = np.zeros((filled.mesh.vertex_count, 2))
        geo[: filled.original_vertex_count] = target.source.vertices
        for v in filled.virtual_vertices:
            geo[v] = filled.mesh.vertices[v]
        self._geo = geo

    def map_points(self, disk_points, rotation: float = 0.0) -> np.ndarray:
        """Geographic images of many disk points, optionally pre-rotated.

        Parameters
        ----------
        disk_points : (n, 2) array-like
            Source disk positions (e.g. a swarm's ``robot_disk_positions``).
        rotation : float
            CCW angle applied to the points before lookup - the
            modified harmonic map's rotation parameter.
        """
        pts = as_points(disk_points)
        key = (np.ascontiguousarray(pts).tobytes(), float(rotation))
        cached = self._memo.get(key)
        if cached is not None:
            get_metrics().counter("cache.induced_map.hits").inc()
            return cached.copy()
        get_metrics().counter("cache.induced_map.misses").inc()
        result = self._map_points_impl(pts, rotation)
        self._memo[key] = result.copy()
        return result

    def _map_points_impl(self, pts: np.ndarray, rotation: float) -> np.ndarray:
        if rotation != 0.0:
            pts = rotate(pts, rotation)
        if len(pts) == 0:
            return np.zeros((0, 2))
        tri_idx, bary = self.target.locator.locate_nearest_many(pts)
        corners = self.target.filled.mesh.triangles[tri_idx]
        weights = np.asarray(bary, dtype=float).copy()
        virtual = self._is_virtual[corners]
        has_virtual = virtual.any(axis=1)
        degenerate = np.zeros(len(pts), dtype=bool)
        if has_virtual.any():
            weights[virtual] = 0.0
            sums = weights.sum(axis=1)
            degenerate = has_virtual & (sums <= 1e-12)
            renorm = has_virtual & ~degenerate
            weights[renorm] = weights[renorm] / sums[renorm, None]
        result = (weights[:, :, None] * self._geo[corners]).sum(axis=1)
        if degenerate.any():
            # Landed (numerically) on a virtual vertex: take the nearest
            # real corner by disk distance (the first on ties).
            rows = np.flatnonzero(degenerate)
            real = ~virtual[rows]
            if not real.any(axis=1).all():
                raise MappingError("triangle with no real corner")
            dp = self.target.disk_positions[corners[rows]] - pts[rows, None, :]
            dist = np.where(real, np.hypot(dp[..., 0], dp[..., 1]), np.inf)
            pick = corners[rows, np.argmin(dist, axis=1)]
            result[rows] = self._geo[pick]
        return result
