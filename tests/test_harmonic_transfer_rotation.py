"""Tests for the induced map (Eqn. 1) and the rotation-angle search."""

import numpy as np
import pytest

from repro.harmonic import (
    InducedMap,
    compute_disk_map,
    exhaustive_angle_search,
    hierarchical_angle_search,
)
from repro.mesh import triangulate_foi


@pytest.fixture(scope="module")
def square_induced(square_foi_mesh=None):
    from repro.foi import FieldOfInterest
    from repro.geometry import Polygon
    from repro.mesh import triangulate_foi as tf

    foi = FieldOfInterest(Polygon([(0, 0), (100, 0), (100, 100), (0, 100)]))
    fm = tf(foi, target_points=200)
    return fm, compute_disk_map(fm.mesh)


class TestInducedMap:
    def test_images_inside_target(self, square_induced, rng):
        fm, dm = square_induced
        induced = InducedMap(dm)
        disk_pts = rng.uniform(-0.6, 0.6, (40, 2))
        images = induced.map_points(disk_pts)
        assert fm.foi.contains(images).mean() > 0.95

    def test_grid_vertex_roundtrip(self, square_induced):
        # A mesh vertex's own disk position maps back to (nearly) itself.
        fm, dm = square_induced
        induced = InducedMap(dm)
        take = fm.mesh.interior_vertices[:20]
        images = induced.map_points(dm.disk_positions[take])
        assert np.allclose(images, fm.mesh.vertices[take], atol=1e-6)

    def test_rotation_changes_images(self, square_induced):
        fm, dm = square_induced
        induced = InducedMap(dm)
        pts = np.array([[0.3, 0.1], [-0.2, 0.4]])
        a = induced.map_points(pts, rotation=0.0)
        b = induced.map_points(pts, rotation=np.pi / 2)
        assert not np.allclose(a, b)

    def test_continuity_under_small_motion(self, square_induced):
        fm, dm = square_induced
        induced = InducedMap(dm)
        base = np.array([0.25, -0.15])
        img0, img1 = induced.map_points([base, base + [1e-4, 0.0]])
        # Barycentric interpolation is Lipschitz on the mesh scale.
        assert np.hypot(*(img1 - img0)) < 1.0

    def test_point_outside_disk_clamps(self, square_induced):
        fm, dm = square_induced
        induced = InducedMap(dm)
        img = induced.map_points([[2.0, 0.0]])[0]
        xmin, ymin, xmax, ymax = fm.foi.bounds
        assert xmin - 1e-6 <= img[0] <= xmax + 1e-6
        assert ymin - 1e-6 <= img[1] <= ymax + 1e-6


class TestInducedMapHoles:
    def test_hole_landing_goes_to_hole_boundary(self, holed_foi_mesh):
        dm = compute_disk_map(holed_foi_mesh.mesh)
        induced = InducedMap(dm)
        # The virtual vertex's disk position is the centre of the filled
        # hole; mapping it must land on (or very near) the hole boundary.
        v = dm.filled.virtual_vertices[0]
        img = induced.map_points(dm.disk_positions[[v]])[0]
        hole = holed_foi_mesh.foi.holes[0]
        assert hole.boundary_distance(img) < 3.0  # within a grid cell

    def test_images_avoid_deep_hole_interior(self, holed_foi_mesh, rng):
        dm = compute_disk_map(holed_foi_mesh.mesh)
        induced = InducedMap(dm)
        pts = rng.uniform(-0.9, 0.9, (150, 2))
        pts = pts[np.hypot(*pts.T) < 0.95]
        images = induced.map_points(pts)
        hole = holed_foi_mesh.foi.holes[0]
        # Images inside the hole may only hug its boundary chords.
        inside_hole = [
            p for p in images if hole.contains(p, include_boundary=False)
        ]
        for p in inside_hole:
            assert hole.boundary_distance(p) < 2.5


def parabola(angle: float) -> float:
    """Smooth objective with a unique max at 2.0 rad on the circle."""
    return float(np.cos(angle - 2.0))


class TestAngleSearch:
    def test_hierarchical_finds_peak(self):
        res = hierarchical_angle_search(parabola, depth=8, initial_samples=8)
        assert res.angle == pytest.approx(2.0, abs=0.1)

    def test_paper_depth_4_close(self):
        res = hierarchical_angle_search(parabola, depth=4, initial_samples=4)
        assert parabola(res.angle) > 0.9  # near-optimal, as the paper claims

    def test_minimize_mode(self):
        res = hierarchical_angle_search(parabola, depth=8, maximize=False,
                                        initial_samples=8)
        target = (2.0 + np.pi) % (2 * np.pi)
        assert np.cos(res.angle - 2.0) < -0.9
        assert res.angle == pytest.approx(target, abs=0.2)

    def test_evaluation_budget(self):
        # Seeds + two probes per level + the final bracket's centre.
        res = hierarchical_angle_search(parabola, depth=4, initial_samples=4)
        assert res.evaluations == 4 + 2 * 4 + 1

    @pytest.mark.parametrize("depth,samples", [(0, 4), (2, 4), (4, 8), (6, 3)])
    def test_evaluation_budget_formula(self, depth, samples):
        res = hierarchical_angle_search(
            parabola, depth=depth, initial_samples=samples
        )
        assert res.evaluations == samples + 2 * depth + 1

    def test_final_bracket_centre_is_scored(self):
        # Regression: the search must evaluate the centre of the final
        # interval it narrowed to, not just the quarter-point probes.
        calls = []

        def tracked(a):
            calls.append(a)
            return parabola(a)

        res = hierarchical_angle_search(tracked, depth=3, initial_samples=4)
        assert len(calls) == res.evaluations
        # The last evaluation is the final bracket's centre, and the
        # returned score is the max over every angle actually scored.
        assert res.score == pytest.approx(max(parabola(a) for a in calls))

    def test_exhaustive_oracle(self):
        res = exhaustive_angle_search(parabola, samples=720)
        assert res.angle == pytest.approx(2.0, abs=0.01)
        assert res.evaluations == 720

    def test_hierarchical_never_worse_than_seeds(self):
        calls = []

        def tracked(a):
            calls.append(a)
            return parabola(a)

        res = hierarchical_angle_search(tracked, depth=4, initial_samples=4)
        assert res.score >= max(parabola(a) for a in calls[:4]) - 1e-12

    def test_depth_zero_returns_best_seed(self):
        # Depth 0 still probes the seed bracket's centre once.
        res = hierarchical_angle_search(parabola, depth=0, initial_samples=4)
        assert res.evaluations == 4 + 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            hierarchical_angle_search(parabola, depth=-1)

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            exhaustive_angle_search(parabola, samples=0)
