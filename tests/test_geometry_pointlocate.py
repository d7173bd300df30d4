"""Tests for the batch triangle locator."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import TriangleLocator, from_barycentric
from repro.mesh import delaunay_mesh
from tests import geometry_oracle as oracle


@pytest.fixture(scope="module")
def grid_mesh():
    xs, ys = np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return delaunay_mesh(pts)


@pytest.fixture(scope="module")
def locator(grid_mesh):
    return TriangleLocator(grid_mesh.vertices, grid_mesh.triangles)


def locate_one(locator, p):
    """One row of ``locate_many``, ``None`` on a miss."""
    tri, bary = locator.locate_many(np.asarray(p, dtype=float)[None, :])
    return None if tri[0] < 0 else (int(tri[0]), bary[0])


class TestConstruction:
    def test_requires_triangles(self):
        with pytest.raises(GeometryError):
            TriangleLocator([[0, 0], [1, 0], [0, 1]], np.zeros((0, 3), dtype=int))

    def test_rejects_bad_indices(self):
        with pytest.raises(GeometryError):
            TriangleLocator([[0, 0], [1, 0], [0, 1]], [[0, 1, 5]])

    def test_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            TriangleLocator([[0, 0], [1, 0], [0, 1]], [[0, 1]])


class TestLocate:
    def test_interior_points_found(self, grid_mesh, locator, rng):
        pts = rng.uniform(0.05, 0.95, (50, 2))
        tri, bary = locator.locate_many(pts)
        assert np.all(tri >= 0)
        for p, tri_idx, b in zip(pts, tri, bary):
            corners = grid_mesh.triangles[tri_idx]
            back = from_barycentric(
                b,
                grid_mesh.vertices[corners[0]],
                grid_mesh.vertices[corners[1]],
                grid_mesh.vertices[corners[2]],
            )
            assert np.allclose(back, p, atol=1e-9)
            assert np.all(b >= -1e-9)

    def test_outside_returns_none(self, locator):
        assert locate_one(locator, [5.0, 5.0]) is None
        assert locate_one(locator, [-1.0, 0.5]) is None

    def test_vertex_location(self, grid_mesh, locator):
        assert locate_one(locator, grid_mesh.vertices[7]) is not None

    def test_shared_edge_point(self, locator):
        # A point on an interior edge must still be located exactly once.
        assert locate_one(locator, [0.2, 0.2]) is not None


class TestLocateNearest:
    def test_inside_same_as_locate(self, locator):
        p = np.array([[0.31, 0.47]])
        assert locator.locate_nearest_many(p)[0][0] == locator.locate_many(p)[0][0]

    def test_outside_clamps_to_simplex(self, grid_mesh, locator):
        tri, bary = locator.locate_nearest_many([[10.0, 10.0]])
        assert 0 <= tri[0] < grid_mesh.triangle_count
        assert bary[0].sum() == pytest.approx(1.0)
        assert np.all(bary[0] >= 0)

    def test_far_point_maps_near_boundary(self, grid_mesh, locator):
        tri, bary = locator.locate_nearest_many([[2.0, 0.5]])
        corners = grid_mesh.triangles[tri[0]]
        point = (bary[0][:, None] * grid_mesh.vertices[corners]).sum(axis=0)
        # The clamped image stays inside the unit square mesh.
        assert -1e-6 <= point[0] <= 1 + 1e-6
        assert -1e-6 <= point[1] <= 1 + 1e-6


class TestMatchesOracle:
    """Batch location equals the per-point oracle bitwise on a holed
    mesh: random points, vertices, edge points, centroids and points
    outside the mesh."""

    @pytest.fixture(scope="class")
    def holed(self, holed_foi_mesh):
        return holed_foi_mesh.mesh

    def queries(self, mesh, rng):
        v, t = mesh.vertices, mesh.triangles
        w = rng.uniform(0, 1, (len(t), 1))
        edge_pts = w * v[t[:, 0]] + (1 - w) * v[t[:, 1]]
        lo, hi = v.min(axis=0), v.max(axis=0)
        span = hi - lo
        return np.vstack([
            rng.uniform(lo - 0.2 * span, hi + 0.2 * span, (150, 2)),
            v,
            edge_pts,
            v[t].mean(axis=1),
            hi + span,
        ])

    def test_locate_many(self, holed, rng):
        q = self.queries(holed, rng)
        tri, bary = TriangleLocator(holed.vertices, holed.triangles).locate_many(q)
        for i, p in enumerate(q):
            hit = oracle.locate(holed.vertices, holed.triangles, p)
            if hit is None:
                assert tri[i] == -1 and np.all(np.isnan(bary[i]))
            else:
                assert tri[i] == hit[0]
                assert np.array_equal(bary[i], hit[1])

    def test_locate_nearest_many(self, holed, rng):
        q = self.queries(holed, rng)
        tri, bary = TriangleLocator(holed.vertices, holed.triangles).locate_nearest_many(q)
        assert np.any(
            [oracle.locate(holed.vertices, holed.triangles, p) is None for p in q]
        )
        for i, p in enumerate(q):
            t, b = oracle.locate_nearest(holed.vertices, holed.triangles, p)
            assert tri[i] == t
            assert np.array_equal(bary[i], b)
