"""Property-based tests for barycentric coordinates (paper Appendix A)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    barycentric_coords,
    barycentric_coords_paired,
    from_barycentric,
    point_in_triangle,
    triangle_area,
)

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
pt = st.tuples(coord, coord)


def nondegenerate(a, b, c, min_area=1e-3):
    return abs(triangle_area(a, b, c)) > min_area


class TestTriangleArea:
    def test_unit_right_triangle(self):
        assert triangle_area([0, 0], [1, 0], [0, 1]) == pytest.approx(0.5)

    def test_orientation_sign(self):
        assert triangle_area([0, 0], [0, 1], [1, 0]) == pytest.approx(-0.5)

    def test_degenerate_zero(self):
        assert triangle_area([0, 0], [1, 1], [2, 2]) == pytest.approx(0.0)


class TestBarycentric:
    def test_vertices_are_unit_coordinates(self):
        a, b, c = [0, 0], [2, 0], [0, 2]
        assert np.allclose(barycentric_coords(a, a, b, c), [1, 0, 0])
        assert np.allclose(barycentric_coords(b, a, b, c), [0, 1, 0])
        assert np.allclose(barycentric_coords(c, a, b, c), [0, 0, 1])

    def test_centroid(self):
        a, b, c = [0, 0], [3, 0], [0, 3]
        t = barycentric_coords([1, 1], a, b, c)
        assert np.allclose(t, [1 / 3, 1 / 3, 1 / 3])

    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            barycentric_coords([0, 0], [0, 0], [1, 1], [2, 2])

    @given(pt, pt, pt, pt)
    @settings(max_examples=200)
    def test_sum_to_one_and_roundtrip(self, p, a, b, c):
        assume(nondegenerate(a, b, c))
        t = barycentric_coords(p, a, b, c)
        assert t.sum() == pytest.approx(1.0, abs=1e-9)
        back = from_barycentric(t, a, b, c)
        assert np.allclose(back, p, atol=1e-5)

    @given(
        st.floats(0, 1), st.floats(0, 1), pt, pt, pt
    )
    @settings(max_examples=200)
    def test_convex_combination_inside(self, u, v, a, b, c):
        assume(nondegenerate(a, b, c))
        t1 = u
        t2 = (1 - u) * v
        t3 = 1 - t1 - t2
        p = from_barycentric([t1, t2, t3], a, b, c)
        assert point_in_triangle(p, a, b, c, tol=1e-6)


class TestPointInTriangle:
    def test_inside(self):
        assert point_in_triangle([0.2, 0.2], [0, 0], [1, 0], [0, 1])

    def test_outside(self):
        assert not point_in_triangle([1.0, 1.0], [0, 0], [1, 0], [0, 1])

    def test_on_edge(self):
        assert point_in_triangle([0.5, 0.0], [0, 0], [1, 0], [0, 1])


class TestVectorisedBarycentric:
    def test_matches_scalar(self, rng):
        tri_a = rng.uniform(-5, 5, (10, 2))
        tri_b = rng.uniform(-5, 5, (10, 2))
        tri_c = rng.uniform(-5, 5, (10, 2))
        p = rng.uniform(-5, 5, (10, 2))
        out = barycentric_coords_paired(p, tri_a, tri_b, tri_c)
        for j in range(10):
            if abs(triangle_area(tri_a[j], tri_b[j], tri_c[j])) < 1e-6:
                continue
            expected = barycentric_coords(p[j], tri_a[j], tri_b[j], tri_c[j])
            assert np.allclose(out[j], expected, atol=1e-7)

    def test_degenerate_rows_are_nan(self):
        out = barycentric_coords_paired(
            [[0.0, 0.0]], [[0, 0]], [[1, 1]], [[2, 2]]
        )
        assert np.isnan(out).all()
