"""The flat edge table against the per-edge loops it replaced.

Every FoI geometry query (containment with and without the boundary
band, boundary distances, nearest-boundary projection, simplicity) runs
on ``repro.geometry.edges.EdgeTable``.  These tests compare it bit for
bit with the loops kept in ``tests/geometry_oracle.py``, on inputs built
to hit the rounding edge cases: points on edges and vertices, horizontal
edges, points at exactly the boundary tolerance and one ulp either side,
copies shifted by thousands of units, ties between equidistant edges
and edges shorter than the projection's degeneracy bound.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.foi import FieldOfInterest
from repro.geometry import Polygon
from repro.geometry.edges import EdgeTable

from . import geometry_oracle as oracle
from .trajectory_oracle import same_bits

HOLE_CENTRES = [(3.0, 3.0), (-3.0, 3.0), (-3.0, -3.0), (3.0, -3.0)]
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _hole(kind, half, centre):
    cx, cy = centre
    if kind == "square":
        v = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    elif kind == "diamond":
        v = [(0, -1), (1, 0), (0, 1), (-1, 0)]
    else:
        v = [(-1, -1), (1, -1), (0, 1)]
    return [(cx + half * x, cy + half * y) for x, y in v]


@st.composite
def fois(draw, max_holes=4):
    """A star-shaped outer boundary (radius 8-12, optionally snapped to a
    grid, which makes horizontal edges) with 0-4 disjoint holes, shifted
    by an offset of up to thousands of units."""
    k = draw(st.integers(6, 14))
    radii = np.array(draw(st.lists(st.floats(8, 12), min_size=k, max_size=k)))
    phase = draw(st.floats(0, 1))
    theta = 2 * np.pi * (np.arange(k) + phase) / k
    outer = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
    snap = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if snap:
        outer = np.round(outer / snap) * snap
    holes = [
        _hole(draw(st.sampled_from(["square", "diamond", "triangle"])),
              draw(st.sampled_from([0.25, 0.5, 1.0])), centre)
        for centre in HOLE_CENTRES[: draw(st.integers(0, max_holes))]
    ]
    shift = np.array(draw(st.sampled_from([(0.0, 0.0), (1000.5, -3.25), (-2500.25, 4000.0)])))
    return FieldOfInterest(outer + shift, [np.array(h) + shift for h in holes])


def probe_points(foi, seed, count=60):
    """Uniform points plus vertices, edge points, hole centres, and points
    at the boundary tolerance from an edge and one ulp either side."""
    rng = np.random.default_rng(seed)
    xmin, ymin, xmax, ymax = foi.bounds
    pts = [rng.uniform([xmin - 2, ymin - 2], [xmax + 2, ymax + 2], (count, 2))]
    for poly in (foi.outer,) + foi.holes:
        v = poly.vertices
        w = np.roll(v, -1, axis=0)
        pts += [v, (v + w) / 2.0, v + rng.uniform(0, 1, (len(v), 1)) * (w - v)]
        pts.append(poly.centroid[None, :])
        tol = 1e-9 * max(1.0, poly.perimeter)
        d = w - v
        normal = np.column_stack([-d[:, 1], d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
        for side in (1.0, -1.0):
            at_tol = (v + w) / 2.0 + side * tol * normal
            pts += [at_tol, np.nextafter(at_tol, at_tol + normal),
                    np.nextafter(at_tol, at_tol - normal)]
    return np.vstack(pts)


def _short_edge_foi(in_hole):
    """A 4e-7-long edge at the origin (below the projection's ``d @ d <
    1e-12`` bound), on the outer boundary or on a hole."""
    notch = [(0.0, 0.0), (4e-7, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    if in_hole:
        return FieldOfInterest([(-10, -10), (10, -10), (10, 10), (-10, 10)], [notch])
    return FieldOfInterest(notch)


class TestContainment:
    @settings(max_examples=60, deadline=None)
    @given(foi=fois(), seed=st.integers(0, 2**32 - 1))
    def test_foi_and_polygon_verdicts_match_oracle(self, foi, seed):
        pts = probe_points(foi, seed)
        assert np.array_equal(foi.contains(pts), oracle.foi_contains(foi, pts))
        for poly in (foi.outer,) + foi.holes:
            for band in (True, False):
                assert np.array_equal(
                    poly.contains(pts, include_boundary=band),
                    oracle.polygon_contains(poly, pts, include_boundary=band),
                )
        for p in pts[:: max(1, len(pts) // 25)]:
            assert foi.hole_containing(p) == oracle.hole_containing(foi, p)
            assert foi.contains(p) == bool(oracle.foi_contains(foi, [p])[0])

    @settings(max_examples=30, deadline=None)
    @given(foi=fois(), seed=st.integers(0, 2**32 - 1))
    def test_grid_points_match_oracle(self, foi, seed):
        spacing = np.random.default_rng(seed).uniform(0.3, 1.5)
        pts = foi.outer.grid_points(spacing)
        keep = np.ones(len(pts), dtype=bool)
        for hole in foi.holes:
            keep &= ~oracle.polygon_contains(hole, pts, include_boundary=True)
        assert same_bits(foi.grid_points(spacing), pts[keep])

    def test_band_flips_only_points_parity_calls_outside(self):
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        tol = 1e-9 * square.perimeter
        on_edge = np.array([[2.0, 0.0], [4.0, 2.0], [0.0, 0.0], [2.0, 4.0]])
        near = np.array([[2.0, -tol / 2], [2.0, -3 * tol], [4.0 + tol / 2, 1.0]])
        # Below a corner the nearest point is the corner itself, so the
        # distance is exactly tol, then one ulp more.
        at_tol = np.array([[0.0, -tol], [0.0, -np.nextafter(tol, 1.0)]])
        pts = np.vstack([on_edge, near, at_tol])
        band = square.contains(pts, include_boundary=True)
        assert band.tolist() == [True] * 4 + [True, False, True] + [True, False]
        parity = square.contains(pts, include_boundary=False)
        assert (band | ~parity).all()  # the band never unsets a verdict
        assert np.array_equal(band, oracle.polygon_contains(square, pts))

    def test_grid_points_on_hole_boundaries_are_dropped(self):
        # Pitch-1 grid points sit at .5 coordinates, on this hole's edges.
        hole = [(2.5, 2.5), (4.5, 2.5), (4.5, 4.5), (2.5, 4.5)]
        foi = FieldOfInterest([(0, 0), (10, 0), (10, 10), (0, 10)], [hole])
        pts = foi.outer.grid_points(1.0)
        want = pts[~oracle.polygon_contains(foi.holes[0], pts, include_boundary=True)]
        got = foi.grid_points(1.0)
        assert same_bits(got, want)
        assert len(pts) - len(got) == 9  # the 3 x 3 grid points on or in the hole


class TestDistances:
    @settings(max_examples=60, deadline=None)
    @given(foi=fois(), seed=st.integers(0, 2**32 - 1))
    def test_boundary_distances_bitwise(self, foi, seed):
        pts = probe_points(foi, seed)
        assert same_bits(foi.boundary_distances(pts), oracle.foi_boundary_distances(foi, pts))
        for poly in (foi.outer,) + foi.holes:
            assert same_bits(poly.boundary_distances(pts), oracle.boundary_distances(poly, pts))
        want = np.full(len(pts), np.inf)
        for hole in foi.holes:
            want = np.minimum(want, oracle.boundary_distances(hole, pts))
        assert same_bits(foi.hole_distances(pts), want)


class TestProjection:
    @settings(max_examples=40, deadline=None)
    @given(foi=fois(), seed=st.integers(0, 2**32 - 1))
    def test_batched_equals_scalar_oracle(self, foi, seed):
        pts = probe_points(foi, seed, count=20)
        got = foi.project_inside(pts)
        want = np.array([oracle.project_inside(foi, p) for p in pts])
        assert same_bits(got, want)
        for i in range(0, len(pts), max(1, len(pts) // 10)):
            assert same_bits(foi.project_inside(pts[i]), want[i])

    @pytest.mark.parametrize("in_hole", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(offsets=st.lists(st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6)),
                            min_size=1, max_size=12))
    @example(offsets=[(2e-7, -1e-7), (1e-7, 1e-7), (-1e-7, -1e-7), (0.0, 0.0)])
    def test_degenerate_short_edge(self, in_hole, offsets):
        foi = _short_edge_foi(in_hole)
        assert len(foi.edge_table) == 5 + 4 * in_hole
        pts = np.array(offsets, dtype=float)
        assume(not foi.contains(pts).all())
        want = np.array([oracle.project_inside(foi, p) for p in pts])
        assert same_bits(foi.project_inside(pts), want)
        assert same_bits(foi.boundary_distances(pts), oracle.foi_boundary_distances(foi, pts))

    def test_tie_between_equidistant_edges_takes_the_first(self):
        outer = [(-10, -10), (10, -10), (10, 10), (-10, 10)]
        hole = [(-1, -1), (1, -1), (1, 1), (-1, 1)]  # centre equidistant from all four
        foi = FieldOfInterest(outer, [hole])
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.5]])
        got = foi.project_inside(pts)
        assert same_bits(got, np.array([oracle.project_inside(foi, p) for p in pts]))
        # Edge 0 of the CCW hole is its bottom side.
        assert got[0][1] < -1.0 and got[0][0] == 0.0

    def test_empty_and_inside_points_unchanged(self):
        foi = FieldOfInterest([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert foi.project_inside(np.zeros((0, 2))).shape == (0, 2)
        pts = np.array([[1.0, 1.0], [2.0, 3.0]])
        assert same_bits(foi.project_inside(pts), pts)


def _simple_or_none(vertices):
    try:
        return Polygon(vertices)
    except GeometryError:
        return None


class TestSimplicity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=12),
           st.sampled_from([1.0, 0.1, 0.3]))
    @example([(0, 0), (4, 0), (1, 2), (3, 2)], 0.3)  # bowtie
    @example([(0, 0), (4, 0), (2, 0), (2, 2)], 1.0)  # collinear overlap of two edges
    @example([(0, 0), (3, 0), (1, 0), (1, 2)], 0.1)  # the same, with rounding
    @example([(2, 3), (3, 4), (1, 2), (1, 0), (3, 2)], 0.1)  # only the tolerance says simple
    @example([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], 1.0)  # shared vertex
    @example([(0, 0), (4, 0), (4, 4), (0, 4)], 1.0)  # convex
    def test_verdict_matches_oracle(self, vertices, pitch):
        # A pitch of 0.1 or 0.3 leaves collinear triples with a tiny
        # nonzero cross product, which only the orientation tolerance zeroes.
        poly = _simple_or_none(np.array(vertices, dtype=float) * pitch)
        assume(poly is not None)
        assert poly.is_simple() == oracle.is_simple(poly)
        assert poly.is_convex == oracle.is_convex(poly)

    @settings(max_examples=50, deadline=None)
    @given(foi=fois(max_holes=0))
    def test_star_shapes_are_simple(self, foi):
        assert foi.outer.is_simple() and oracle.is_simple(foi.outer)

    def test_bowtie_is_not_simple(self):
        assert not Polygon([(0, 0), (4, 0), (1, 2), (3, 2)]).is_simple()


class TestCrossings:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["square", "diamond", "triangle"]),
                  st.sampled_from([0.5, 1.0, 2.0]),
                  st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
        min_size=1, max_size=4,
    ))
    def test_crossing_loops_matches_oracle(self, loops):
        # Small shapes on a coarse grid cross, touch along shared edges
        # and share vertices often.
        polys = [Polygon(_hole(kind, half, centre)) for kind, half, centre in loops]
        table = EdgeTable(polys)
        assert table.crossing_loops() == oracle.crossing_loops([p.vertices for p in polys])

    def test_crossing_bars(self):
        bar = Polygon([(-3, -1), (3, -1), (3, 1), (-3, 1)])
        cross = Polygon([(-1, -3), (1, -3), (1, 3), (-1, 3)])
        outer = Polygon([(-10, -10), (10, -10), (10, 10), (-10, 10)])
        assert EdgeTable([outer, bar, cross]).crossing_loops() == (1, 2)
        assert EdgeTable([outer, bar]).crossing_loops() is None


def _loop_iterables(path):
    """Source of every ``for`` iterable (statements and comprehensions)."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            yield ast.unparse(node.iter)


class TestSourceScan:
    def test_one_edge_flattening(self):
        for path in SRC.rglob("*.py"):
            assert "_HoleEdges" not in path.read_text(), path

    @pytest.mark.parametrize("rel", ["geometry/polygon.py", "geometry/edges.py", "foi/region.py"])
    def test_no_per_edge_python_loop(self, rel):
        # Loops may walk polygons/holes, fixed-size blocks of pairs
        # (a strided range) or the chunked pair generator - never edges.
        for it in _loop_iterables(SRC / rel):
            per_loop = any(w in it for w in ("holes", "polygons", "loops"))
            blocked = it.startswith("range(") and it.count(",") == 2
            assert per_loop or blocked or it.startswith("_interval_pairs("), (rel, it)
