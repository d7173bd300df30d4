"""Tests for the paper's three metrics: D, L, C."""

import numpy as np
import pytest

from repro.metrics import (
    connectivity_report,
    distance_report,
    global_connectivity,
    stable_link_ratio,
    stable_link_report,
    straight_line_lower_bound,
    total_moving_distance,
)
from repro.network import LinkTable
from repro.robots import straight_transition, SwarmTrajectory


def chain_positions(n=4, spacing=1.0):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


class TestDistance:
    def test_total_matches_paths(self):
        traj = straight_transition([[0, 0], [0, 1]], [[3, 4], [0, 1]])
        assert total_moving_distance(traj) == pytest.approx(5.0)

    def test_report_fields(self):
        traj = straight_transition([[0, 0], [0, 0]], [[3, 4], [6, 8]])
        rep = distance_report(traj)
        assert rep.total == pytest.approx(15.0)
        assert rep.mean == pytest.approx(7.5)
        assert rep.max == pytest.approx(10.0)

    def test_ratio(self):
        traj = straight_transition([[0, 0]], [[3, 4]])
        assert distance_report(traj).ratio_to(10.0) == pytest.approx(0.5)

    def test_ratio_bad_baseline(self):
        traj = straight_transition([[0, 0]], [[3, 4]])
        with pytest.raises(ValueError):
            distance_report(traj).ratio_to(0.0)

    def test_lower_bound_tight_for_straight(self):
        p = [[0, 0], [5, 5]]
        q = [[1, 1], [9, 9]]
        traj = straight_transition(p, q)
        assert straight_line_lower_bound(p, q) == pytest.approx(
            total_moving_distance(traj)
        )


class TestStableLinks:
    def test_all_stable_when_static(self):
        pos = chain_positions()
        links = LinkTable.from_positions(pos, 1.5)
        traj = straight_transition(pos, pos)
        assert stable_link_ratio(links, traj) == 1.0

    def test_breaking_one_link(self):
        pos = chain_positions(3)
        links = LinkTable.from_positions(pos, 1.5)  # links (0,1), (1,2)
        target = pos.copy()
        target[2] += [10.0, 0.0]
        traj = straight_transition(pos, target)
        rep = stable_link_report(links, traj)
        assert rep.initial_links == 2
        assert rep.stable_links == 1
        assert rep.ratio == pytest.approx(0.5)
        assert rep.broken_mask.sum() == 1

    def test_transient_break_detected(self):
        """A link broken mid-flight but restored at the end still counts
        broken (Definition 1 requires connectivity for ALL t)."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        links = LinkTable.from_positions(pos, 1.5)
        # Robot 1 loops far away and comes back via a two-leg path.
        traj = SwarmTrajectory.constant_speed(
            [0, 2, 5], [[0, 0], [0, 0], [1, 0], [50, 0], [1, 0]], 0.0, 1.0
        )
        assert stable_link_ratio(links, traj) == 0.0

    def test_no_links_is_ratio_one(self):
        pos = np.array([[0.0, 0.0], [100.0, 0.0]])
        links = LinkTable.from_positions(pos, 1.0)
        traj = straight_transition(pos, pos)
        assert stable_link_ratio(links, traj) == 1.0


class TestStableLinkSamplingExactness:
    """Definition 1 quantifies over ALL t: the evaluator must not miss
    breaks that fall between uniform grid samples."""

    def test_detour_break_between_grid_samples(self):
        # Robot 1 detours out to distance 52 at t=0.4, which falls
        # strictly between the resolution-32 grid samples 12/31 and
        # 13/31 (where d <= 50.5).  The detour's waypoint time must be
        # merged into the evaluation times for the break to be seen.
        pos = np.array([[0.0, 0.0], [5.0, 0.0]])
        links = LinkTable.from_positions(pos, 51.0)
        traj = SwarmTrajectory(
            [0, 1, 4], [0.0, 0.0, 0.4, 1.0], [[0, 0], [5, 0], [52, 0], [5, 0]],
            0.0, 1.0,
        )
        rep = stable_link_report(links, traj, resolution=32)
        assert rep.initial_links == 1
        assert rep.stable_links == 0
        assert rep.ratio == 0.0

    def test_pre_jump_break_detected(self):
        # Robot 1 climbs continuously to distance 50 at t -> 0.5-, then
        # jumps back to 14 instantaneously (duplicated waypoint time).
        # Right-continuous sampling sees at most d ~ 48.55 on the grid
        # and d = 14 at t = 0.5 itself, so only the left-sided limit at
        # the jump reveals the break at comm range 49.
        pos = np.array([[0.0, 0.0], [5.0, 0.0]])
        links = LinkTable.from_positions(pos, 49.0)
        traj = SwarmTrajectory(
            [0, 1, 5],
            [0.0, 0.0, 0.5, 0.5, 1.0],
            [[0, 0], [5, 0], [50, 0], [14, 0], [5, 0]],
            0.0,
            1.0,
        )
        rep = stable_link_report(links, traj, resolution=32)
        assert rep.stable_links == 0
        assert rep.ratio == 0.0

    def test_left_and_right_limits(self):
        path = SwarmTrajectory([0, 3], [0.0, 0.5, 0.5], [[0, 0], [10, 0], [2, 0]], 0.0, 0.5)
        assert np.allclose(path.positions_over([0.5], side="left")[0], [[10, 0]])
        assert np.allclose(path.positions_over([0.5], side="right")[0], [[2, 0]])
        # The point query takes the post-jump side too.
        assert np.allclose(path.positions_at(0.5), [[2, 0]])
        # Continuous instants agree on both sides.
        assert np.allclose(
            path.positions_over([0.25, 0.75], side="left"),
            path.positions_over([0.25, 0.75], side="right"),
        )

    def test_discontinuity_times(self):
        def one(xy, times):
            return SwarmTrajectory([0, len(xy)], times, xy, 0.0, 1.0)

        cont = SwarmTrajectory.constant_speed([0, 2], [[0, 0], [1, 0]], 0.0, 1.0)
        assert len(cont.discontinuity_times()) == 0
        # A duplicated time with identical positions is not a jump.
        still = one([[0, 0], [5, 0], [5, 0], [9, 0]], [0, 0.5, 0.5, 1])
        assert len(still.discontinuity_times()) == 0
        jump = one([[0, 0], [5, 0], [7, 0]], [0, 0.5, 0.5])
        assert np.allclose(jump.discontinuity_times(), [0.5])
        # Consecutive rows of two different robots never form a jump.
        traj = SwarmTrajectory(
            [0, 1, 4], [0.5, 0.5, 0.5, 0.5], [[0, 0], [5, 0], [5, 0], [5, 0]],
            0.0, 0.5,
        )
        assert len(traj.discontinuity_times()) == 0
        traj = SwarmTrajectory(
            [0, 1, 4], [0.0, 0.0, 0.5, 0.5], [[0, 0], [0, 0], [5, 0], [7, 0]],
            0.0, 0.5,
        )
        assert np.allclose(traj.discontinuity_times(), [0.5])


class TestConnectivity:
    def test_static_chain_connected(self):
        pos = chain_positions()
        traj = straight_transition(pos, pos)
        assert global_connectivity(traj, 1.5)

    def test_splitting_detected(self):
        pos = chain_positions(4)
        target = pos.copy()
        target[2:] += [50.0, 0.0]
        traj = straight_transition(pos, target)
        rep = connectivity_report(traj, 1.5)
        assert not rep.connected
        assert rep.first_failure_time is not None
        assert rep.max_isolated >= 1
        assert rep.as_flag == "N"

    def test_boundary_anchor_semantics(self):
        pos = chain_positions(4)
        traj = straight_transition(pos, pos)
        # Anchored at node 0: all reachable.
        assert global_connectivity(traj, 1.5, boundary_anchors=[0])

    def test_isolated_from_anchor(self):
        pos = chain_positions(4)
        target = pos.copy()
        target[3] += [50.0, 0.0]
        traj = straight_transition(pos, target)
        rep = connectivity_report(traj, 1.5, boundary_anchors=[0])
        assert not rep.connected
        assert rep.max_isolated == 1

    def test_failure_time_ordering(self):
        pos = chain_positions(2)
        target = pos.copy()
        target[1] += [10.0, 0.0]
        traj = straight_transition(pos, target)
        rep = connectivity_report(traj, 1.5, resolution=64)
        # Breaks once separation exceeds 1.5 (t ~ 0.05 of the way).
        assert rep.first_failure_time == pytest.approx(0.06, abs=0.05)

    def test_samples_counted(self):
        pos = chain_positions(2)
        traj = straight_transition(pos, pos)
        rep = connectivity_report(traj, 1.5, resolution=16)
        assert rep.samples >= 16
