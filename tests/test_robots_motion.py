"""Tests for swarm trajectories: the ragged ``offsets``/``times``/``xy`` layout."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanningError
from repro.geometry.vec import polyline_length
from repro.robots import SwarmTrajectory, straight_transition
from tests import trajectory_oracle as oracle

REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def one(waypoints, t_start=0.0, t_end=1.0):
    """A one-robot trajectory at constant speed."""
    return SwarmTrajectory.constant_speed([0, len(waypoints)], waypoints, t_start, t_end)


class TestTimedPath:
    """One robot's path inside a trajectory."""

    def test_constant_speed_times(self):
        traj = one([[0, 0], [3, 0], [3, 4]])
        # Leg lengths 3 and 4: breakpoints at 0, 3/7, 1.
        assert np.allclose(traj.times, [0.0, 3 / 7, 1.0])

    def test_position_interpolation(self):
        traj = one([[0, 0], [10, 0]])
        assert np.allclose(traj.positions_at(0.25), [[2.5, 0.0]])

    def test_clamping_outside_span(self):
        traj = one([[0, 0], [10, 0]])
        assert np.allclose(traj.positions_at(-5.0), [[0, 0]])
        assert np.allclose(traj.positions_at(5.0), [[10, 0]])
        assert np.allclose(traj.positions_over([-5.0, 5.0]), [[[0, 0]], [[10, 0]]])

    def test_stationary(self):
        traj = SwarmTrajectory([0, 1], [0.0], [[2.0, 3.0]], 0.0, 1.0)
        assert np.allclose(traj.positions_at(0.7), [[2.0, 3.0]])
        assert traj.path_lengths().tolist() == [0.0]

    def test_length(self):
        assert one([[0, 0], [3, 0], [3, 4]]).path_lengths()[0] == pytest.approx(7.0)

    def test_zero_length_multiwaypoint(self):
        # A polyline of zero length collapses to its first waypoint.
        traj = one([[1, 1], [1, 1], [1, 1]], t_start=0.5)
        assert traj.path(0)[0].tolist() == [[1.0, 1.0]]
        assert traj.path(0)[1].tolist() == [0.5]
        assert traj.path_lengths().tolist() == [0.0]

    def test_times_must_align(self):
        with pytest.raises(PlanningError, match="align"):
            SwarmTrajectory([0, 2], [0.0], [[0, 0], [1, 1]], 0.0, 1.0)
        with pytest.raises(PlanningError, match="align"):
            SwarmTrajectory.from_paths([([[0, 0], [1, 1]], [0.0])], 0.0, 1.0)

    def test_decreasing_times_rejected(self):
        with pytest.raises(PlanningError, match="non-decreasing"):
            SwarmTrajectory([0, 2], [1.0, 0.0], [[0, 0], [1, 1]], 0.0, 1.0)
        # Within the -1e-12 tolerance, and across a robot boundary, is fine.
        SwarmTrajectory([0, 2], [1.0, 1.0 - 1e-13], [[0, 0], [1, 1]], 0.0, 1.0)
        SwarmTrajectory([0, 1, 2], [1.0, 0.0], [[0, 0], [1, 1]], 0.0, 1.0)

    def test_then_concatenates(self):
        a = one([[0, 0], [1, 0]], 0.0, 0.5)
        b = one([[1, 0], [1, 1]], 0.5, 1.0)
        joined = a.then(b)
        assert joined.path_lengths()[0] == pytest.approx(2.0)
        assert np.allclose(joined.positions_at(0.75), [[1.0, 0.5]])

    def test_then_requires_junction(self):
        a = one([[0, 0], [1, 0]], 0.0, 0.5)
        b = one([[5, 0], [6, 0]], 0.5, 1.0)
        with pytest.raises(PlanningError, match="junction"):
            a.then(b)

    def test_then_rejects_overlapping_legs(self):
        a = one([[0, 0], [1, 0]], 0.0, 0.5)
        b = one([[1, 0], [1, 1]], 0.4, 1.0)
        with pytest.raises(PlanningError, match="starts before"):
            a.then(b)

    def test_positions_over_matches_positions_at(self):
        traj = one([[0, 0], [4, 0], [4, 4]], 0.0, 2.0)
        ts = np.linspace(-0.5, 2.5, 13)
        many = traj.positions_over(ts)
        for t, p in zip(ts, many):
            assert np.allclose(p, traj.positions_at(t), atol=1e-12)

    @given(st.lists(st.tuples(coord, coord), min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_distance_convex_along_pairs(self, pts):
        """Inter-robot distance is convex in t for synchronous linear motion,
        so the max over a sub-interval is attained at its endpoints."""
        traj = straight_transition([pts[0], pts[1]], [pts[-1], pts[0]])

        def dist(t):
            a, b = traj.positions_at(t)
            return float(np.hypot(*(a - b)))

        end_max = max(dist(0.0), dist(1.0))
        for t in np.linspace(0, 1, 9):
            assert dist(t) <= end_max + 1e-6


class TestSwarmTrajectory:
    def _simple(self):
        return straight_transition([[0, 0], [0, 1]], [[10, 0], [10, 1]])

    def test_positions_at(self):
        traj = self._simple()
        mid = traj.positions_at(0.5)
        assert np.allclose(mid, [[5, 0], [5, 1]])

    def test_start_end(self):
        traj = self._simple()
        assert np.allclose(traj.start_positions, [[0, 0], [0, 1]])
        assert np.allclose(traj.end_positions, [[10, 0], [10, 1]])

    def test_total_distance(self):
        assert self._simple().total_distance() == pytest.approx(20.0)

    def test_sample_times_include_critical(self):
        traj = SwarmTrajectory.constant_speed(
            [0, 3, 5], [[0, 0], [1, 0], [1, 5], [0, 1], [10, 1]], 0.0, 1.0
        )
        ts = traj.sample_times(8)
        assert 1.0 / 6.0 == pytest.approx(ts[np.argmin(np.abs(ts - 1 / 6))], abs=1e-9)

    def test_positions_over_table(self):
        traj = self._simple()
        table = traj.positions_over([0.0, 0.5, 1.0])
        assert table.shape == (3, 2, 2)
        assert np.allclose(table[1], [[5, 0], [5, 1]])
        assert traj.positions_over([]).shape == (0, 2, 2)

    def test_positions_over_rows_match_positions_at(self):
        traj = self._simple()
        ts = traj.sample_times(5)
        for t, snap in zip(ts, traj.positions_over(ts)):
            assert np.allclose(snap, traj.positions_at(t))

    def test_then_chains(self):
        first = self._simple()
        second = straight_transition([[10, 0], [10, 1]], [[10, 10], [0, 1]], 1.0, 2.0)
        joined = first.then(second)
        assert joined.duration == pytest.approx(2.0)
        assert joined.total_distance() == pytest.approx(20.0 + 20.0)

    def test_then_waits_after_collapsed_leg(self):
        # The first leg collapses to one waypoint at t = 0; the robot
        # must wait at the junction until the second leg starts at 0.5.
        first = straight_transition([[0, 0]], [[0, 0]], 0.0, 0.5)
        second = straight_transition([[0, 0]], [[1, 0]], 0.5, 1.0)
        joined = first.then(second)
        assert np.array_equal(joined.positions_at(0.25), [[0.0, 0.0]])
        assert np.array_equal(joined.positions_at(0.5), [[0.0, 0.0]])
        assert np.allclose(joined.positions_at(0.75), [[0.5, 0.0]])
        assert joined.times.tolist() == [0.0, 0.5, 1.0]

    def test_then_count_mismatch(self):
        first = self._simple()
        second = straight_transition([[10, 0]], [[0, 0]], 1.0, 2.0)
        with pytest.raises(PlanningError, match="robot counts"):
            first.then(second)

    def test_empty_rejected(self):
        with pytest.raises(PlanningError, match="at least one path"):
            SwarmTrajectory([0], [], np.zeros((0, 2)), 0.0, 1.0)
        with pytest.raises(PlanningError, match="at least one path"):
            SwarmTrajectory.from_paths([], 0.0, 1.0)

    def test_layout_rejected(self):
        with pytest.raises(PlanningError, match="at least one waypoint"):
            SwarmTrajectory([0, 1, 1], [0.0], [[0, 0]], 0.0, 1.0)
        with pytest.raises(PlanningError, match="at least one waypoint"):
            SwarmTrajectory.from_paths([([], [])], 0.0, 1.0)
        with pytest.raises(PlanningError, match="offsets"):
            SwarmTrajectory([0, 1], [0.0, 1.0], [[0, 0], [1, 1]], 0.0, 1.0)
        with pytest.raises(PlanningError, match="t_end"):
            SwarmTrajectory([0, 1], [0.0], [[0, 0]], 1.0, 0.0)
        with pytest.raises(PlanningError, match="t_end"):
            one([[0, 0], [1, 1]], 1.0, 0.0)


# -- the per-robot oracle --------------------------------------------------

# Step sizes between consecutive time stamps; a zero step duplicates a
# time stamp (an instantaneous jump when the positions differ).
steps = st.one_of(st.just(0.0), st.floats(1e-3, 0.6))
# Signed zeros often: the blend returns a waypoint's own -0.0 before
# the first row, on a row's time stamp and past the last one, where
# 0.0 * x + -0.0 would not.
signed = st.one_of(st.sampled_from([0.0, -0.0]), coord)
# Runs of 8 or more segments, where numpy's pairwise sum stops being
# a plain left-to-right sum, as well as short ones.
points = st.one_of(
    st.lists(st.tuples(signed, signed), min_size=1, max_size=7),
    st.lists(st.tuples(signed, signed), min_size=9, max_size=40),
)


@st.composite
def robot(draw, start=None):
    """``(xy, times)`` rows of one robot: stationary, jumping or moving."""
    xy = np.array(draw(points), dtype=float)
    if draw(st.booleans()):
        xy = xy[:1].repeat(len(xy), axis=0)  # parked on one point
    t0 = draw(st.sampled_from([0.0, 0.25, 0.75])) if start is None else start
    ts = t0 + np.cumsum([0.0] + draw(st.lists(steps, min_size=len(xy) - 1,
                                              max_size=len(xy) - 1)))
    return xy, ts


@st.composite
def trajectories(draw):
    """A ragged trajectory of 1-6 robots and its per-robot rows; some
    start late, some jump at their first row."""
    rows = []
    for xy, ts in draw(st.lists(robot(), min_size=1, max_size=6)):
        if draw(st.booleans()):
            xy = np.vstack([np.array(draw(st.tuples(signed, signed))), xy])
            ts = np.concatenate([ts[:1], ts])
        rows.append((xy, ts))
    t_end = max(1.0, max(float(t[-1]) for _, t in rows))
    return SwarmTrajectory.from_paths(rows, 0.0, t_end), rows


def instants(traj):
    """Waypoint times, instants outside the interval, and in between."""
    pool = np.concatenate([traj.times, [traj.t_start - 0.5, traj.t_end + 0.5]])
    return st.one_of(
        st.sampled_from(pool.tolist()), st.floats(-0.5, traj.t_end + 0.5)
    )


def queries(traj):
    """Unsorted instants, some repeated."""
    return st.lists(instants(traj), max_size=16).map(
        lambda ts: np.array(ts, dtype=float)
    )


class TestAgainstPerRobotOracle:
    """Every query equals the per-robot rule bitwise, signed zeros included."""

    def test_signed_zero_waypoints(self):
        xy = np.array([[-0.0, -0.0], [1.0, 1.0], [-0.0, 2.0]])
        times = np.array([0.0, 0.5, 1.0])
        traj = SwarmTrajectory([0, 3], times, xy, 0.0, 1.0)
        ts = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
        for side, rule in (("right", oracle.right), ("left", oracle.left)):
            assert oracle.same_bits(
                traj.positions_over(ts, side=side)[:, 0], rule(xy, times, ts)
            )

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_positions(self, data):
        traj, rows = data.draw(trajectories())
        ts = data.draw(queries(traj))
        for side, rule in (("right", oracle.right), ("left", oracle.left)):
            want = np.stack([rule(xy, t, ts) for xy, t in rows], axis=1)
            got = traj.positions_over(ts, side=side)
            assert got.shape == (len(ts), traj.robot_count, 2)
            assert oracle.same_bits(got, want)
        for t in ts:
            want = np.array([oracle.blend(xy, times, t) for xy, times in rows])
            assert oracle.same_bits(traj.positions_at(t), want)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_positions_of_each_robot_and_instant(self, data):
        traj, _ = data.draw(trajectories())
        instants = traj.instants
        assert np.array_equal(instants, np.unique(instants))
        assert {traj.t_start, traj.t_end} <= set(instants.tolist())
        assert np.array_equal(instants[traj.row_instants], traj.times)
        n, k = traj.robot_count, len(instants)
        robots, at = np.tile(np.arange(n), k), np.repeat(np.arange(k), n)
        for side in ("right", "left"):
            want = traj.positions_over(instants, side=side).reshape(-1, 2)
            assert oracle.same_bits(traj.positions_of(robots, instants[at], side), want)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_positions_of_at_any_time(self, data):
        """Before the first row, on row times, past the last row and at
        signed zeros, per entry and as a broadcast table."""
        traj, _ = data.draw(trajectories())
        n = traj.robot_count
        ends = [traj.times.min() - 0.5, traj.times.max() + 0.5, 0.0, -0.0]
        ts = np.concatenate([data.draw(queries(traj)), ends, traj.times])
        robots = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                             min_size=len(ts), max_size=len(ts))))
        for side in ("right", "left"):
            table = traj.positions_over(ts, side=side)
            got = traj.positions_of(np.arange(n), ts[:, None], side)
            assert got.shape == table.shape and oracle.same_bits(got, table)
            want = table[np.arange(len(ts)), robots]
            assert oracle.same_bits(traj.positions_of(robots, ts, side), want)

    def test_positions_of_with_times_a_hair_out_of_order(self):
        # Times may step back by up to 1e-12 within a robot.
        traj = SwarmTrajectory([0, 3, 4], [0.2, 0.5, 0.5 - 1e-13, 0.5],
                               [[0, 0], [1, 0], [2, 0], [7, 7]], 0.0, 1.0)
        n, k = traj.robot_count, len(traj.instants)
        robots, at = np.tile(np.arange(n), k), np.repeat(np.arange(k), n)
        for side in ("right", "left"):
            want = traj.positions_over(traj.instants, side=side).reshape(-1, 2)
            got = traj.positions_of(robots, traj.instants[at], side)
            assert oracle.same_bits(got, want)
        with pytest.raises(PlanningError, match="side"):
            traj.positions_of([0], [0.0], side="middle")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lengths_and_times(self, data):
        traj, rows = data.draw(trajectories())
        assert oracle.same_bits(
            traj.path_lengths(), [polyline_length(xy) for xy, _ in rows]
        )
        t0, t1 = (data.draw(instants(traj)) for _ in range(2))
        want = [oracle.length_between(xy, t, t0, t1) for xy, t in rows]
        assert oracle.same_bits(traj.distances_between(t0, t1), want)
        ends = np.array(data.draw(st.lists(
            st.sampled_from(traj.times.tolist() + [-1.0, t1, np.inf]),
            min_size=len(rows), max_size=len(rows),
        )))
        want = [oracle.length_between(xy, t, t0, e) for (xy, t), e in zip(rows, ends)]
        assert oracle.same_bits(traj.distances_between(t0, ends), want)

        every = np.unique(np.concatenate([[traj.t_start, traj.t_end], traj.times]))
        inside = (every >= traj.t_start - 1e-9) & (every <= traj.t_end + 1e-9)
        assert oracle.same_bits(traj.critical_times(), every[inside])
        jumps = np.unique(np.concatenate(
            [oracle.discontinuities(xy, t) for xy, t in rows]
        ))
        inside = (jumps >= traj.t_start - 1e-9) & (jumps <= traj.t_end + 1e-9)
        assert oracle.same_bits(traj.discontinuity_times(), jumps[inside])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_constant_speed_and_then(self, data):
        polylines = data.draw(st.lists(points, min_size=1, max_size=6))
        polylines = [np.array(p, dtype=float) for p in polylines]
        if data.draw(st.booleans()):
            polylines[0] = polylines[0][:1].repeat(3, axis=0)  # zero length
        split = data.draw(st.floats(0.0, 1.0))
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in polylines])])
        first = SwarmTrajectory.constant_speed(
            offsets, np.concatenate(polylines), 0.0, split
        )
        want = [oracle.constant_speed(p, 0.0, split) for p in polylines]
        for (xy, times), (w_xy, w_times) in zip(oracle.paths(first), want):
            assert oracle.same_bits(xy, w_xy) and oracle.same_bits(times, w_times)

        # A second leg from where each robot stopped (a collapsed first
        # leg makes the robot wait there until the second leg starts).
        legs = [data.draw(robot(start=split)) for _ in polylines]
        legs = [
            (np.vstack([p[-1:], xy]), np.concatenate([[split], t]))
            for p, (xy, t) in zip(polylines, legs)
        ]
        second = SwarmTrajectory.from_paths(legs, split, split + 1.0)
        joined = first.then(second)
        want = [oracle.then(a, b) for a, b in zip(oracle.paths(first), legs)]
        for (xy, times), (w_xy, w_times) in zip(oracle.paths(joined), want):
            assert oracle.same_bits(xy, w_xy) and oracle.same_bits(times, w_times)
        assert (joined.t_start, joined.t_end) == (0.0, split + 1.0)


class TestOneFormula:
    """``positions_at``, ``positions_over`` and ``positions_of`` are one formula."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_positions_at_is_the_right_limit(self, data):
        # From the left, test_positions_of_at_any_time covers the pair.
        traj, _ = data.draw(trajectories())
        n = traj.robot_count
        ts = np.concatenate([data.draw(queries(traj)), traj.times, [0.0, -0.0]])
        for t in ts:
            at = traj.positions_at(t)
            assert oracle.same_bits(at, traj.positions_over([t])[0])
            assert oracle.same_bits(at, traj.positions_of(np.arange(n), t))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_close_to_np_interp(self, data):
        """An independent check: ``np.interp``'s slope form, from the
        right, within ``32 eps M`` per coordinate, ``M`` the robot's
        largest coordinate (the blend is within ``8 eps M`` of the exact
        point, the slope form within about ``11 eps M``)."""
        traj, rows = data.draw(trajectories())
        ts = data.draw(queries(traj))
        got = traj.positions_over(ts)
        for i, (xy, times) in enumerate(rows):
            want = np.column_stack([np.interp(ts, times, xy[:, c]) for c in (0, 1)])
            tol = 32 * np.finfo(float).eps * np.abs(xy).max()
            assert np.all(np.abs(got[:, i] - want) <= tol)

    # A robot that jumps from (0, 0) to (0, 1) at t = 0, then flies back.
    JUMP_AT_START = ([0, 3], [0.0, 0.0, 0.5], [[0, 0], [0, 1], [0, 0]], 0.0, 0.5)

    def test_jump_at_first_row_is_right_continuous(self):
        traj = SwarmTrajectory(*self.JUMP_AT_START)
        assert traj.positions_at(0.0).tolist() == [[0.0, 1.0]]
        assert traj.positions_over([0.0]).tolist() == [[[0.0, 1.0]]]
        assert traj.positions_over([0.0], side="left").tolist() == [[[0.0, 0.0]]]

    def test_distance_flown_after_a_jump_at_the_start(self):
        # Measured from the post-jump point: 1.0 (the pre-jump one gives 0.0).
        traj = SwarmTrajectory(*self.JUMP_AT_START)
        assert traj.distances_between(0.0, 0.5).tolist() == [1.0]
        assert traj.distances_between(0.0, np.array([0.25])).tolist() == [0.5]

    # A robot that flies from (0, 0) to (1, 0), then jumps to (1, 5) at t = 1.
    JUMP_AT_END = ([0, 3], [0.0, 1.0, 1.0], [[0, 0], [1, 0], [1, 5]], 0.0, 2.0)

    def test_distance_flown_up_to_a_jump_at_the_end(self):
        # The jump at t1 is still ahead: [0, 1] reads the flown 1.0, not
        # the 5.099 of a straight line to the post-jump point.
        traj = SwarmTrajectory(*self.JUMP_AT_END)
        assert traj.distances_between(0.0, 1.0).tolist() == [1.0]
        assert traj.distances_between(0.0, np.array([1.0])).tolist() == [1.0]
        assert traj.distances_between(0.0, 2.0).tolist() == [6.0]
        assert traj.distances_between(1.0, 2.0).tolist() == [0.0]

    def test_positions_of_scalar_query(self):
        traj = SwarmTrajectory(*self.JUMP_AT_END)
        for t in (-1.0, 0.5, 1.0, 3.0):
            for side in ("right", "left"):
                got = traj.positions_of(0, t, side=side)
                assert got.shape == (2,)
                assert oracle.same_bits(got, traj.positions_of([0], [t], side=side)[0])
        assert traj.positions_of(0, 1.0, side="left").tolist() == [1.0, 0.0]
        assert traj.positions_of(np.int64(0), np.float64(0.5)).tolist() == [0.5, 0.0]


def test_one_trajectory_layout():
    """Swarm motion has one representation: the ragged arrays of
    ``SwarmTrajectory``; no per-robot path object or shape-grouped fast
    path comes back under ``src/repro``."""
    forbidden = [r"\bTimedPath\b", r"\b_vector_groups\b"]
    sources = {
        str(path.relative_to(REPRO_SRC)): path.read_text()
        for path in REPRO_SRC.rglob("*.py")
    }
    found = {
        pattern: sorted(name for name, text in sources.items() if re.search(pattern, text))
        for pattern in forbidden
    }
    assert found == {pattern: [] for pattern in forbidden}
