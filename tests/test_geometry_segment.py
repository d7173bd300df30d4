"""Unit and property tests for segment predicates."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    on_segment,
    orientation,
    point_segment_distance,
    project_point_on_segment,
    segment_intersection_point,
    segments_intersect,
    segments_properly_cross,
)
from repro.geometry.segment import points_segments_distance

coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


class TestOrientation:
    def test_ccw(self):
        assert orientation([0, 0], [1, 0], [0, 1]) == 1

    def test_cw(self):
        assert orientation([0, 0], [0, 1], [1, 0]) == -1

    def test_collinear(self):
        assert orientation([0, 0], [1, 1], [2, 2]) == 0

    @given(point, point, point)
    def test_reversal_flips_sign(self, a, b, c):
        assert orientation(a, b, c) == -orientation(a, c, b)


class TestOnSegment:
    def test_midpoint(self):
        assert on_segment([0.5, 0.5], [0, 0], [1, 1])

    def test_endpoint(self):
        assert on_segment([0, 0], [0, 0], [1, 1])

    def test_off_segment_collinear(self):
        assert not on_segment([2, 2], [0, 0], [1, 1])

    def test_off_line(self):
        assert not on_segment([0.5, 0.6], [0, 0], [1, 1])


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect([0, 0], [1, 1], [0, 1], [1, 0])

    def test_disjoint(self):
        assert not segments_intersect([0, 0], [1, 0], [0, 1], [1, 1])

    def test_shared_endpoint(self):
        assert segments_intersect([0, 0], [1, 0], [1, 0], [1, 1])

    def test_collinear_overlap(self):
        assert segments_intersect([0, 0], [2, 0], [1, 0], [3, 0])

    def test_collinear_disjoint(self):
        assert not segments_intersect([0, 0], [1, 0], [2, 0], [3, 0])

    def test_t_junction(self):
        assert segments_intersect([0, 0], [2, 0], [1, 0], [1, 1])

    @given(point, point, point, point)
    def test_symmetric(self, a1, a2, b1, b2):
        assert segments_intersect(a1, a2, b1, b2) == segments_intersect(b1, b2, a1, a2)


class TestProperCross:
    def test_crossing_counts(self):
        assert segments_properly_cross([0, 0], [1, 1], [0, 1], [1, 0])

    def test_shared_endpoint_does_not_count(self):
        assert not segments_properly_cross([0, 0], [1, 0], [1, 0], [1, 1])

    def test_t_junction_does_not_count(self):
        assert not segments_properly_cross([0, 0], [2, 0], [1, 0], [1, 1])

    def test_collinear_overlap_does_not_count(self):
        assert not segments_properly_cross([0, 0], [2, 0], [1, 0], [3, 0])


class TestIntersectionPoint:
    def test_simple_cross(self):
        x = segment_intersection_point([0, 0], [2, 2], [0, 2], [2, 0])
        assert np.allclose(x, [1, 1])

    def test_disjoint_returns_none(self):
        assert segment_intersection_point([0, 0], [1, 0], [0, 1], [1, 1]) is None

    def test_parallel_non_collinear(self):
        assert segment_intersection_point([0, 0], [1, 0], [0, 1], [1, 1]) is None

    def test_collinear_overlap_returns_shared(self):
        x = segment_intersection_point([0, 0], [2, 0], [1, 0], [3, 0])
        assert x is not None and on_segment(x, [0, 0], [2, 0]) and on_segment(x, [1, 0], [3, 0])

    @given(point, point, point, point)
    def test_point_lies_on_both(self, a1, a2, b1, b2):
        x = segment_intersection_point(a1, a2, b1, b2)
        if x is not None:
            assert point_segment_distance(x, a1, a2) < 1e-5
            assert point_segment_distance(x, b1, b2) < 1e-5


class TestProjection:
    def test_interior(self):
        q = project_point_on_segment([1, 1], [0, 0], [2, 0])
        assert np.allclose(q, [1, 0])

    def test_clamps_to_endpoints(self):
        assert np.allclose(project_point_on_segment([-5, 3], [0, 0], [2, 0]), [0, 0])
        assert np.allclose(project_point_on_segment([9, 3], [0, 0], [2, 0]), [2, 0])

    def test_degenerate_segment(self):
        assert np.allclose(project_point_on_segment([5, 5], [1, 1], [1, 1]), [1, 1])

    def test_degenerate_segment_takes_nearer_endpoint(self):
        # A hypothesis draw for test_projection_is_closest: the segment
        # is shorter than the degeneracy cut-off and ``b`` is ``p``.
        p, a, b = (0.0, 0.0), (0.0, 1.192092896e-07), (0.0, 0.0)
        assert project_point_on_segment(p, a, b).tolist() == [0.0, 0.0]
        assert point_segment_distance(p, a, b) == 0.0
        assert project_point_on_segment(p, b, a).tolist() == [0.0, 0.0]

    @given(point, point, point)
    def test_projection_is_closest(self, p, a, b):
        q = project_point_on_segment(p, a, b)
        d = point_segment_distance(p, a, b)
        # No sampled point of the segment is meaningfully closer.
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = (1 - t) * np.asarray(a, float) + t * np.asarray(b, float)
            assert d <= np.hypot(*(np.asarray(p, float) - s)) + 1e-7


class TestVectorisedDistance:
    def test_matches_scalar(self, rng):
        pts = rng.uniform(-10, 10, (20, 2))
        a = rng.uniform(-10, 10, (7, 2))
        b = rng.uniform(-10, 10, (7, 2))
        mat = points_segments_distance(pts, a, b)
        assert mat.shape == (20, 7)
        for i in range(20):
            for j in range(7):
                assert mat[i, j] == pytest.approx(
                    point_segment_distance(pts[i], a[j], b[j]), abs=1e-9
                )

    def test_degenerate_segments(self):
        mat = points_segments_distance([[0.0, 0.0]], [[1.0, 1.0]], [[1.0, 1.0]])
        assert mat[0, 0] == pytest.approx(np.sqrt(2))
