"""Tests for FieldOfInterest: containment, areas, projection, sampling."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.geometry import Polygon

OUTER = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
OUTER_20 = Polygon([(-10, -10), (10, -10), (10, 10), (-10, 10)])


def small_hole(cx=5.0, cy=5.0, r=1.5):
    return ellipse_polygon(r, r, samples=16, center=(cx, cy))


class TestConstruction:
    def test_plain_region(self):
        foi = FieldOfInterest(OUTER, name="test")
        assert foi.area == pytest.approx(100.0)
        assert not foi.has_holes

    def test_hole_subtracts_area(self):
        hole = small_hole()
        foi = FieldOfInterest(OUTER, [hole])
        assert foi.area == pytest.approx(100.0 - hole.area)

    def test_hole_outside_rejected(self):
        with pytest.raises(GeometryError):
            FieldOfInterest(OUTER, [small_hole(cx=20.0)])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_nested_holes_rejected(self, order):
        # A hole inside another hole would be subtracted twice: the free
        # area of outer +-10 minus holes +-4 and +-1 would read 332, not 336.
        square = lambda r: [(-r, -r), (r, -r), (r, r), (-r, r)]  # noqa: E731
        holes = [square(4), square(1)]
        with pytest.raises(GeometryError, match="overlap"):
            FieldOfInterest(square(10), [holes[i] for i in order])

    def test_crossing_holes_rejected(self):
        # Two crossing bars: no vertex of one lies inside the other, yet
        # they overlap, and the area would read 376 instead of 380.
        bar = [(-3, -1), (3, -1), (3, 1), (-3, 1)]
        with pytest.raises(GeometryError, match="holes 0 and 1 overlap"):
            FieldOfInterest(OUTER_20, [bar, [(y, x) for x, y in bar]])

    def test_hole_crossing_outer_rejected(self):
        # A bar across the notch of a U: all its vertices lie inside the
        # U's arms, but its long edges cross the notch's sides.
        u_shape = [(0, 0), (10, 0), (10, 10), (7, 10), (7, 3), (3, 3), (3, 10), (0, 10)]
        bar = [(1, 5), (9, 5), (9, 6), (1, 6)]
        with pytest.raises(GeometryError, match="hole 0 crosses the outer boundary"):
            FieldOfInterest(u_shape, [bar])

    def test_accepts_raw_vertex_arrays(self):
        foi = FieldOfInterest([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert foi.area == pytest.approx(16.0)


class TestContainment:
    def test_inside_free_region(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        assert foi.contains([1.0, 1.0])

    def test_inside_hole_excluded(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        assert not foi.contains([5.0, 5.0])

    def test_outside_outer(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        assert not foi.contains([20.0, 5.0])

    def test_vectorised(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        out = foi.contains([[1, 1], [5, 5], [20, 5]])
        assert out.tolist() == [True, False, False]

    def test_hole_containing(self):
        foi = FieldOfInterest(OUTER, [small_hole(3, 3, 1.0), small_hole(7, 7, 1.0)])
        assert foi.hole_containing([3.0, 3.0]) == 0
        assert foi.hole_containing([7.0, 7.0]) == 1
        assert foi.hole_containing([5.0, 5.0]) is None


class TestCentroid:
    def test_plain_centroid(self):
        foi = FieldOfInterest(OUTER)
        assert np.allclose(foi.centroid, [5.0, 5.0])

    def test_hole_shifts_centroid_away(self):
        foi = FieldOfInterest(OUTER, [small_hole(cx=8.0, cy=5.0)])
        assert foi.centroid[0] < 5.0  # mass removed on the right


class TestDistances:
    def test_boundary_distance_interior(self):
        foi = FieldOfInterest(OUTER)
        assert foi.boundary_distance([5.0, 5.0]) == pytest.approx(5.0)

    def test_hole_boundary_is_boundary(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        assert foi.boundary_distance([5.0, 7.0]) < 1.0

    def test_hole_distance_without_holes_is_inf(self):
        foi = FieldOfInterest(OUTER)
        assert foi.hole_distance([5.0, 5.0]) == np.inf

    def test_vectorised_matches_scalar(self, rng):
        foi = FieldOfInterest(OUTER, [small_hole()])
        pts = rng.uniform(0, 10, (15, 2))
        vec = foi.boundary_distances(pts)
        for p, d in zip(pts, vec):
            assert d == pytest.approx(foi.boundary_distance(p))


class TestProjection:
    def test_inside_point_unchanged(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        p = foi.project_inside([2.0, 2.0])
        assert np.allclose(p, [2.0, 2.0])

    def test_point_in_hole_pushed_out(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        p = foi.project_inside([5.0, 5.2])
        assert foi.contains(p)
        # Stays near the hole boundary, not teleported across the region.
        assert np.hypot(p[0] - 5.0, p[1] - 5.0) < 2.5

    def test_point_outside_outer_pulled_in(self):
        foi = FieldOfInterest(OUTER)
        p = foi.project_inside([15.0, 5.0])
        assert foi.contains(p)
        assert p[0] <= 10.0 + 1e-6


class TestSampling:
    def test_grid_points_exclude_holes(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        pts = foi.grid_points(0.5)
        assert len(pts) > 100
        assert foi.contains(pts).all()

    def test_random_sampling_inside(self, rng):
        foi = FieldOfInterest(OUTER, [small_hole()])
        pts = foi.sample_free_points(64, rng)
        assert pts.shape == (64, 2)
        assert foi.contains(pts).all()


class TestTransforms:
    def test_translation_moves_everything(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        moved = foi.translated([100.0, 0.0])
        assert moved.area == pytest.approx(foi.area)
        assert np.allclose(moved.centroid, foi.centroid + [100.0, 0.0])
        assert moved.contains([101.0, 1.0])

    def test_scaled_to_area_free_area(self):
        foi = FieldOfInterest(OUTER, [small_hole()])
        scaled = foi.scaled_to_area(500.0)
        assert scaled.area == pytest.approx(500.0)
        assert len(scaled.holes) == 1

    def test_boundary_polylines_count(self):
        foi = FieldOfInterest(OUTER, [small_hole(3, 3, 1.0), small_hole(7, 7, 1.0)])
        assert len(foi.boundary_polylines()) == 3
