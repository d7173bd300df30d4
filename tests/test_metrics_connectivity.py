"""The one Definition-2 evaluator: ``repro.metrics.connectivity``.

``isolated_counts`` is checked against a straightforward per-instant
oracle kept here, the left-limit and empty-anchor rules are pinned on
small hand-built trajectories, and a source scan keeps every caller of
the reachability flood inside the evaluator.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.harness import evaluate_trajectory
from repro.metrics import connectivity_report, isolated_counts
from repro.network import LinkTable
from repro.network.udg import UnitDiskGraph
from repro.robots import SwarmTrajectory, TimedPath, straight_transition

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def chain(n, spacing=1.0):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


def oracle_counts(traj, comm_range, anchors, times, side="right",
                  alive_until=None):
    """Isolated robots per instant, one graph at a time."""
    out = []
    for t in times:
        present = [
            j for j in range(traj.robot_count)
            if alive_until is None or t < alive_until[j]
        ]
        if not present:
            out.append(0)
            continue
        pts = traj.positions_over(np.array([t]), side=side)[0][present]
        graph = UnitDiskGraph(pts, comm_range)
        local = [present.index(a) for a in set(anchors or ()) if a in present]
        if local:
            out.append(int((~graph.nodes_connected_to(local)).sum()))
        else:
            largest = max(
                int(graph.nodes_connected_to([i]).sum())
                for i in range(len(present))
            )
            out.append(len(present) - largest)
    return out


def jump_pair():
    """Robot 1 leaves range just before t = 0.5, then jumps back.

    Every right-sided sample sees the pair within range 1.5; only the
    left-sided limit at the jump has robot 1 at distance 5.
    """
    still = TimedPath.stationary([0.0, 0.0], 0.0)
    jumper = TimedPath(
        [[1.0, 0.0], [1.0, 0.0], [5.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
        [0.0, 0.49, 0.5, 0.5, 1.0],
    )
    return SwarmTrajectory([still, jumper], 0.0, 1.0)


class TestLeftLimits:
    def test_right_samples_alone_miss_the_cut(self):
        traj = jump_pair()
        assert np.allclose(traj.discontinuity_times(), [0.5])
        right = isolated_counts(traj, 1.5, [0], traj.sample_times(32))
        assert (right == 0).all()

    @pytest.mark.parametrize("anchors", [None, [0]])
    def test_report_sees_the_left_limit(self, anchors):
        rep = connectivity_report(jump_pair(), 1.5, anchors)
        assert not rep.connected
        assert rep.first_failure_time == 0.5
        assert rep.max_isolated == rep.left_limit_isolated == 1
        assert rep.samples == len(jump_pair().sample_times(32)) + 1

    def test_table_i_evaluation_sees_the_left_limit(self):
        traj = jump_pair()
        links = LinkTable.from_positions(traj.start_positions, 1.5)
        ev = evaluate_trajectory("jump", traj, links, [0])
        assert not ev.globally_connected
        assert ev.max_isolated == 1


class TestAnchorRule:
    def test_empty_anchors_mean_plain_connectivity(self):
        pos = chain(4)
        traj = straight_transition(pos, pos)
        rep = connectivity_report(traj, 1.5, [])
        assert rep.connected and rep.max_isolated == 0
        assert rep == connectivity_report(traj, 1.5, None)

    def test_empty_anchors_still_count_split_robots(self):
        pos = chain(4)
        target = pos.copy()
        target[3] += [30.0, 0.0]
        rep = connectivity_report(straight_transition(pos, target), 1.5, [])
        assert not rep.connected and rep.max_isolated == 1

    def test_crash_of_every_anchor_falls_back_to_survivors(self):
        pos = chain(5)
        traj = straight_transition(pos, pos)
        times = [0.0, 0.25, 0.5, 0.75]
        # The only anchor (the middle robot) dies at 0.5: the survivors
        # split into {0, 1} and {3, 4}, so two of four are isolated.
        alive_until = [np.inf, np.inf, 0.5, np.inf, np.inf]
        counts = isolated_counts(traj, 1.5, [2], times, alive_until=alive_until)
        assert counts.tolist() == [0, 0, 2, 2]
        # An end robot as the only anchor: its crash leaves a connected
        # chain, which passes.
        alive_until = [0.5, np.inf, np.inf, np.inf, np.inf]
        counts = isolated_counts(traj, 1.5, [0], times, alive_until=alive_until)
        assert counts.tolist() == [0, 0, 0, 0]

    def test_nobody_present_is_not_a_violation(self):
        pos = chain(3)
        traj = straight_transition(pos, pos)
        counts = isolated_counts(
            traj, 1.5, [0], [0.0, 1.0], alive_until=[0.5, 0.5, 0.5]
        )
        assert counts.tolist() == [0, 0]

    def test_bad_inputs_raise(self):
        from repro.errors import GeometryError

        traj = straight_transition(chain(3), chain(3))
        with pytest.raises(GeometryError):
            isolated_counts(traj, 1.5, [3], [0.0])
        with pytest.raises(GeometryError):
            isolated_counts(traj, 1.5, None, [0.0], alive_until=[1.0])


@st.composite
def trajectories(draw):
    """Piecewise-linear swarms on a quarter grid, jumps included."""
    n = draw(st.integers(2, 6))
    coord = st.integers(0, 12).map(lambda v: v / 4.0)
    paths = []
    for _ in range(n):
        k = draw(st.integers(1, 4))
        # A zero step duplicates a time stamp: an instantaneous jump.
        steps = draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]),
                              min_size=k - 1, max_size=k - 1))
        times = np.concatenate([[0.0], np.cumsum(steps)])
        points = [[draw(coord), draw(coord)] for _ in range(k)]
        paths.append(TimedPath(points, times))
    t_end = max(1.0, max(float(p.times[-1]) for p in paths))
    return SwarmTrajectory(paths, 0.0, t_end)


class TestAgainstOracle:
    @given(
        traj=trajectories(),
        comm_range=st.sampled_from([0.75, 1.0, 1.5, 2.5]),
        anchor_bits=st.integers(0, 63),
        side=st.sampled_from(["right", "left"]),
        crashes=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf]),
                         min_size=6, max_size=6),
        resolution=st.integers(2, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_match_oracle(self, traj, comm_range, anchor_bits, side,
                                 crashes, resolution):
        n = traj.robot_count
        anchors = [j for j in range(n) if anchor_bits >> j & 1]
        alive_until = np.array(crashes[:n])
        times = np.union1d(traj.sample_times(resolution),
                           traj.discontinuity_times())
        for until in (None, alive_until):
            for anc in (None, anchors):
                got = isolated_counts(traj, comm_range, anc, times,
                                      side=side, alive_until=until)
                assert got.tolist() == oracle_counts(
                    traj, comm_range, anc, times, side, until
                )

    @given(
        traj=trajectories(),
        comm_range=st.sampled_from([0.75, 1.0, 1.5, 2.5]),
        anchor_bits=st.integers(0, 63),
        resolution=st.integers(2, 9),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_oracle_violation_fails_the_report(self, traj, comm_range,
                                                   anchor_bits, resolution):
        anchors = [j for j in range(traj.robot_count) if anchor_bits >> j & 1]
        right = oracle_counts(traj, comm_range, anchors,
                              traj.sample_times(resolution))
        left = oracle_counts(traj, comm_range, anchors,
                             traj.discontinuity_times(), side="left")
        rep = connectivity_report(traj, comm_range, anchors, resolution)
        assert rep.connected == (max(right + left) == 0)
        assert rep.max_isolated == max(right + left)
        assert rep.samples == len(right) + len(left)


def test_reachability_flood_is_called_only_by_the_evaluator():
    """Definition 2 has one evaluator; no module keeps its own sampler."""
    callers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"(?<!def )\bnodes_connected_to\(", path.read_text())
    )
    assert callers == ["metrics/connectivity.py"]
