"""Unit and property tests for the Polygon type."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import Polygon, polygon_centroid, signed_area


def regular(n, r=1.0, phase=0.0):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False) + phase
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


class TestConstruction:
    def test_ccw_normalisation(self):
        cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
        poly = Polygon(cw)
        assert signed_area(poly.vertices) > 0

    def test_duplicate_vertices_dropped(self):
        poly = Polygon([(0, 0), (0, 0), (1, 0), (1, 1), (1, 1)])
        assert len(poly) == 3

    def test_duplicates_judged_by_extent_not_position(self):
        # Far from the origin a relative-to-coordinate tolerance would
        # call every vertex of this square a duplicate of the next.
        square = np.array([(0, 0), (10, 0), (10, 10), (0, 10)], dtype=float)
        for shift in [(0.0, 2e6), (-1e6, 3e6)]:
            poly = Polygon(square + shift)
            assert len(poly) == 4
            assert poly.area == pytest.approx(100.0, abs=1e-2)
        doubled = np.vstack([square, square[-1:], square[:1]]) + (0.0, 2e6)
        assert len(Polygon(doubled)) == 4

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    def test_zero_area_rejected(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1), (2, 2)])

    def test_vertices_read_only(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.vertices[0, 0] = 99.0


class TestAreaCentroidPerimeter:
    def test_unit_square(self, unit_square):
        assert unit_square.area == pytest.approx(1.0)
        assert np.allclose(unit_square.centroid, [0.5, 0.5])
        assert unit_square.perimeter == pytest.approx(4.0)

    def test_triangle(self):
        tri = Polygon([(0, 0), (4, 0), (0, 3)])
        assert tri.area == pytest.approx(6.0)
        assert np.allclose(tri.centroid, [4 / 3, 1.0])

    def test_regular_polygon_area_formula(self):
        n, r = 12, 2.5
        poly = Polygon(regular(n, r))
        expected = 0.5 * n * r * r * np.sin(2 * np.pi / n)
        assert poly.area == pytest.approx(expected)

    def test_centroid_translation_equivariance(self):
        poly = Polygon(regular(7, 3.0))
        moved = poly.translated([10.0, -4.0])
        assert np.allclose(moved.centroid, poly.centroid + [10.0, -4.0])

    def test_l_shape_area(self, concave_polygon):
        assert concave_polygon.area == pytest.approx(3.0)


class TestContains:
    def test_center_inside(self, unit_square):
        assert unit_square.contains([0.5, 0.5])

    def test_outside(self, unit_square):
        assert not unit_square.contains([1.5, 0.5])

    def test_boundary_included_by_default(self, unit_square):
        assert unit_square.contains([1.0, 0.5])
        assert unit_square.contains([0.0, 0.0])

    def test_boundary_excluded_when_asked(self, unit_square):
        assert not unit_square.contains([1.0, 0.5], include_boundary=False)

    def test_vectorised(self, unit_square):
        pts = [[0.5, 0.5], [2.0, 2.0], [0.1, 0.9]]
        assert unit_square.contains(pts).tolist() == [True, False, True]

    def test_concave_notch(self, concave_polygon):
        assert concave_polygon.contains([0.5, 1.5])
        assert not concave_polygon.contains([1.5, 1.5])

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_interior_grid(self, x, y):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert square.contains([x, y])

    def test_centroid_inside_for_convex(self):
        poly = Polygon(regular(9, 4.0, phase=0.3))
        assert poly.contains(poly.centroid)


class TestBoundaryDistance:
    def test_interior_point(self, unit_square):
        assert unit_square.boundary_distance([0.5, 0.5]) == pytest.approx(0.5)

    def test_exterior_point(self, unit_square):
        assert unit_square.boundary_distance([2.0, 0.5]) == pytest.approx(1.0)

    def test_vectorised_matches_scalar(self, concave_polygon, rng):
        pts = rng.uniform(-1, 3, (25, 2))
        vec = concave_polygon.boundary_distances(pts)
        for p, d in zip(pts, vec):
            assert d == pytest.approx(concave_polygon.boundary_distance(p), abs=1e-9)


class TestConvexitySimplicity:
    def test_square_is_convex(self, unit_square):
        assert unit_square.is_convex

    def test_l_shape_not_convex(self, concave_polygon):
        assert not concave_polygon.is_convex

    def test_l_shape_is_simple(self, concave_polygon):
        assert concave_polygon.is_simple()

    def test_bowtie_not_simple(self):
        # Edges (4,0)-(1,2) and (3,2)-(0,0) properly cross at (2, 4/3),
        # yet the shoelace area is nonzero so construction succeeds.
        bowtie = Polygon([(0, 0), (4, 0), (1, 2), (3, 2)])
        assert not bowtie.is_simple()


class TestTransforms:
    def test_scaled_to_area(self):
        poly = Polygon(regular(16, 1.0)).scaled_to_area(555.0)
        assert poly.area == pytest.approx(555.0)

    def test_scale_rejects_nonpositive(self, unit_square):
        with pytest.raises(GeometryError):
            unit_square.scaled(0.0)

    def test_rotation_preserves_area(self):
        poly = Polygon(regular(5, 2.0))
        assert poly.rotated(1.1).area == pytest.approx(poly.area)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25)
    def test_scaling_scales_area_quadratically(self, factor):
        poly = Polygon(regular(6, 1.0))
        assert poly.scaled(factor).area == pytest.approx(poly.area * factor**2)


class TestSampling:
    def test_sample_boundary_count_and_membership(self, unit_square):
        pts = unit_square.sample_boundary(40)
        assert len(pts) == 40
        assert all(unit_square.boundary_distance(p) < 1e-9 for p in pts)

    def test_sample_boundary_uniform_spacing(self, unit_square):
        pts = unit_square.sample_boundary(8)
        # Every sample half a unit apart along the perimeter of length 4.
        gaps = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
        assert np.allclose(gaps, 0.5)

    def test_grid_points_inside(self, concave_polygon):
        pts = concave_polygon.grid_points(0.2)
        assert len(pts) > 0
        assert concave_polygon.contains(pts).all()

    def test_grid_margin_respected(self, unit_square):
        pts = unit_square.grid_points(0.1, include_boundary_margin=0.3)
        assert all(unit_square.boundary_distance(p) >= 0.3 - 1e-12 for p in pts)

    def test_grid_rejects_bad_spacing(self, unit_square):
        with pytest.raises(GeometryError):
            unit_square.grid_points(0.0)

    def test_grid_density_scales(self, unit_square):
        coarse = unit_square.grid_points(0.25)
        fine = unit_square.grid_points(0.1)
        assert len(fine) > len(coarse)


class TestModuleFunctions:
    def test_signed_area_orientation(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert signed_area(sq) == pytest.approx(1.0)
        assert signed_area(sq[::-1]) == pytest.approx(-1.0)

    def test_polygon_centroid_degenerate_falls_back(self):
        c = polygon_centroid([(0, 0), (1, 1), (2, 2)])
        assert np.allclose(c, [1.0, 1.0])

    def test_centroid_empty_raises(self):
        with pytest.raises(GeometryError):
            polygon_centroid(np.zeros((0, 2)))
