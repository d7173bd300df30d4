"""Tests for transition builders (straight, detoured, stepwise)."""

import numpy as np
import pytest

from repro.errors import PlanningError
from repro.foi import FieldOfInterest, ellipse_polygon, path_blocked_by_hole
from repro.geometry import Polygon
from repro.robots import detoured_transition, stepwise_trajectory, straight_transition


@pytest.fixture(scope="module")
def hole_foi():
    outer = Polygon([(0, 0), (20, 0), (20, 20), (0, 20)])
    return FieldOfInterest(outer, [ellipse_polygon(3, 3, samples=20, center=(10, 10))])


class TestStraightTransition:
    def test_linear_interpolation(self):
        traj = straight_transition([[0, 0]], [[10, 0]])
        assert np.allclose(traj.positions_at(0.3), [[3, 0]])

    def test_eqn2_form(self, rng):
        """Eqn. 2: position(t) = (T-t)/T p + t/T q for straight marches."""
        p = rng.uniform(0, 10, (5, 2))
        q = rng.uniform(0, 10, (5, 2))
        traj = straight_transition(p, q, 0.0, 2.0)
        for t in (0.0, 0.5, 1.3, 2.0):
            expected = (2.0 - t) / 2.0 * p + t / 2.0 * q
            assert np.allclose(traj.positions_at(t), expected, atol=1e-9)

    def test_count_mismatch(self):
        with pytest.raises(PlanningError):
            straight_transition([[0, 0]], [[1, 1], [2, 2]])


class TestDetouredTransition:
    def test_no_holes_degrades_to_straight(self, square_foi):
        traj = detoured_transition([[1, 1]], [[50, 50]], square_foi)
        assert len(traj.path(0)[0]) == 2

    def test_blocked_path_gets_waypoints(self, hole_foi):
        traj = detoured_transition([[2, 10]], [[18, 10]], hole_foi)
        assert len(traj.path(0)[0]) > 2

    def test_detoured_path_is_clear(self, hole_foi):
        traj = detoured_transition([[2, 10]], [[18, 10]], hole_foi)
        wps = traj.path(0)[0]
        for a, b in zip(wps, wps[1:]):
            assert path_blocked_by_hole(hole_foi, a, b) is None

    def test_unblocked_robot_unaffected(self, hole_foi):
        traj = detoured_transition(
            [[2, 10], [2, 2]], [[18, 10], [18, 2]], hole_foi
        )
        assert len(traj.path(1)[0]) == 2

    def test_none_foi(self):
        traj = detoured_transition([[0, 0]], [[5, 5]], None)
        assert traj.total_distance() == pytest.approx(np.sqrt(50))

    def test_source_foi_holes_avoided(self, hole_foi):
        # March leaves the hole-bearing FoI toward a plain target: the
        # path across the source hole must still detour.
        target = FieldOfInterest([(30, 0), (50, 0), (50, 20), (30, 20)])
        traj = detoured_transition(
            [[2.0, 10.0]], [[40.0, 10.0]], target, source_foi=hole_foi
        )
        wps = traj.path(0)[0]
        assert len(wps) > 2
        for a, b in zip(wps, wps[1:]):
            assert path_blocked_by_hole(hole_foi, a, b) is None

    def test_both_fois_holes_combined(self, hole_foi):
        target = FieldOfInterest(
            Polygon([(30, 0), (50, 0), (50, 20), (30, 20)]),
            [ellipse_polygon(3, 3, samples=20, center=(40, 10))],
        )
        traj = detoured_transition(
            [[2.0, 10.0]], [[48.0, 10.0]], target, source_foi=hole_foi
        )
        wps = traj.path(0)[0]
        for a, b in zip(wps, wps[1:]):
            assert path_blocked_by_hole(hole_foi, a, b) is None
            assert path_blocked_by_hole(target, a, b) is None


class TestStepwiseTrajectory:
    def test_passes_through_snapshots(self):
        steps = [
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.array([[0.0, 1.0], [1.0, 1.0]]),
            np.array([[0.0, 2.0], [2.0, 2.0]]),
        ]
        traj = stepwise_trajectory(steps, 0.0, 1.0)
        assert np.allclose(traj.positions_at(0.0), steps[0])
        assert np.allclose(traj.positions_at(0.5), steps[1])
        assert np.allclose(traj.positions_at(1.0), steps[2])

    def test_total_distance_sums_steps(self):
        steps = [
            np.array([[0.0, 0.0]]),
            np.array([[3.0, 0.0]]),
            np.array([[3.0, 4.0]]),
        ]
        traj = stepwise_trajectory(steps)
        assert traj.total_distance() == pytest.approx(7.0)

    def test_single_snapshot_stationary(self):
        traj = stepwise_trajectory([np.array([[1.0, 1.0]])])
        assert traj.total_distance() == 0.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(PlanningError):
            stepwise_trajectory([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_empty_rejected(self):
        with pytest.raises(PlanningError):
            stepwise_trajectory([])
