"""The one Definition-2 evaluator: ``repro.metrics.connectivity``.

``isolated_counts`` is checked against a straightforward per-instant
oracle kept here - on hypothesis trajectories at several witness and
position block sizes and on a real plan that breaks C - the left-limit and
empty-anchor rules are pinned on small hand-built trajectories, and a
source scan keeps every caller of the reachability flood inside the
evaluator.
"""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.experiments.harness import evaluate_trajectory
from repro.experiments.zoo.campaign import ZooConfig, build_zoo_scenario
from repro.marching import MarchingPlanner
from repro.metrics import connectivity, connectivity_report, isolated_counts
from repro.network import LinkTable
from repro.robots import SwarmTrajectory, straight_transition

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def chain(n, spacing=1.0):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


def oracle_counts(traj, comm_range, anchors, times, side="right",
                  alive_until=None):
    """Isolated robots per instant: a flood over every in-range pair."""
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
        d = pts[:, None, :] - pts[None, :, :]
        near = np.hypot(d[..., 0], d[..., 1]) <= comm_range

        def reached(sources):
            seen, todo = set(sources), list(sources)
            while todo:
                for w in np.flatnonzero(near[todo.pop()]).tolist():
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            return seen

        local = [present.index(a) for a in set(anchors or ()) if a in present]
        if local:
            out.append(len(present) - len(reached(local)))
            continue
        largest, covered = 0, set()
        for i in range(len(present)):
            if i not in covered:
                component = reached([i])
                covered |= component
                largest = max(largest, len(component))
        out.append(len(present) - largest)
    return out


def jump_pair():
    """Robot 1 leaves range just before t = 0.5, then jumps back.

    Every right-sided sample sees the pair within range 1.5; only the
    left-sided limit at the jump has robot 1 at distance 5.
    """
    return SwarmTrajectory(
        [0, 1, 6],
        [0.0, 0.0, 0.49, 0.5, 0.5, 1.0],
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
        0.0,
        1.0,
    )


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


MAX_ROBOTS = 12


@st.composite
def trajectories(draw):
    """Piecewise-linear swarms on a quarter grid, jumps included.

    The grid puts pairs at exactly the communication range and robots on
    top of each other (zero-length links); up to eight waypoints give
    long runs of instants for a witness to hold over.
    """
    n = draw(st.integers(2, MAX_ROBOTS))
    coord = st.integers(0, 12).map(lambda v: v / 4.0)
    paths = []
    for _ in range(n):
        k = draw(st.integers(1, 8))
        # A zero step duplicates a time stamp: an instantaneous jump.
        steps = draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]),
                              min_size=k - 1, max_size=k - 1))
        times = np.concatenate([[0.0], np.cumsum(steps)])
        points = [[draw(coord), draw(coord)] for _ in range(k)]
        paths.append((points, times))
    t_end = max(1.0, max(float(times[-1]) for _, times in paths))
    return SwarmTrajectory.from_paths(paths, 0.0, t_end)


def evaluator_span(tracer):
    (record,) = [r for r in tracer.get_trace() if r.name == "metrics.connectivity"]
    return record.attributes


class TestAgainstOracle:
    @given(
        traj=trajectories(),
        comm_range=st.sampled_from([0.75, 1.0, 1.5, 2.5]),
        anchor_bits=st.integers(0, 2**MAX_ROBOTS - 1),
        side=st.sampled_from(["right", "left"]),
        # Crash times between sample instants change the present set in
        # the middle of a witness block.
        crashes=st.lists(
            st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.61, 1.0, 1.7, np.inf]),
            min_size=MAX_ROBOTS, max_size=MAX_ROBOTS,
        ),
        resolution=st.integers(2, 64),
        reverse=st.booleans(),
        block=st.sampled_from([1, 3, connectivity._WITNESS_BLOCK]),
        # Position blocks that end inside a witness block, and the default.
        fetch=st.sampled_from([1, 5, connectivity._POSITION_BLOCK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_match_oracle(self, traj, comm_range, anchor_bits, side,
                                 crashes, resolution, reverse, block, fetch):
        n = traj.robot_count
        anchors = [j for j in range(n) if anchor_bits >> j & 1]
        alive_until = np.array(crashes[:n])
        times = np.union1d(traj.sample_times(resolution),
                           traj.discontinuity_times())
        if reverse:
            times = times[::-1]
        for until in (None, alive_until):
            for anc in (None, anchors):
                tracer = obs.Tracer()
                with mock.patch.object(connectivity, "_WITNESS_BLOCK", block), \
                        mock.patch.object(connectivity, "_POSITION_BLOCK", fetch), \
                        obs.activate(tracer):
                    got = isolated_counts(traj, comm_range, anc, times,
                                          side=side, alive_until=until)
                assert got.tolist() == oracle_counts(
                    traj, comm_range, anc, times, side, until
                )
                attrs = evaluator_span(tracer)
                nobody = 0 if until is None else int(
                    sum(not (t < until).any() for t in times)
                )
                assert attrs["samples"] == len(times)
                assert attrs["graphs"] + attrs["certified"] == len(times) - nobody

    @given(
        traj=trajectories(),
        comm_range=st.sampled_from([0.75, 1.0, 1.5, 2.5]),
        anchor_bits=st.integers(0, 2**MAX_ROBOTS - 1),
        resolution=st.integers(2, 64),
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


class TestWitness:
    def test_zero_length_tree_link_certifies(self):
        # Robots 1 and 2 coincide for the whole transition, so the tree
        # holds a zero-length link; the chain also sits exactly at range.
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        traj = straight_transition(pos, pos)
        times = traj.sample_times(32)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            counts = isolated_counts(traj, 1.0, [0], times)
        assert (counts == 0).all()
        assert evaluator_span(tracer) == {
            "samples": len(times), "graphs": 1, "certified": len(times) - 1,
        }

    def test_broken_tree_link_falls_back_to_a_graph(self):
        # Robot 2 walks away from the chain: the witness holds while the
        # last link is within range and a full graph sees the split.
        start = chain(3)
        target = start + [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]
        traj = straight_transition(start, target)
        times = np.linspace(0.0, 1.0, 9)
        tracer = obs.Tracer()
        with obs.activate(tracer):
            counts = isolated_counts(traj, 1.5, None, times)
        assert counts.tolist() == oracle_counts(traj, 1.5, None, times)
        assert counts.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1]
        attrs = evaluator_span(tracer)
        assert (attrs["graphs"], attrs["certified"]) == (7, 2)

    def test_single_instant_builds_no_tree(self, monkeypatch):
        calls = []
        monkeypatch.setattr(connectivity, "spanning_tree",
                            lambda *a: calls.append(a))
        traj = straight_transition(chain(4), chain(4))
        assert isolated_counts(traj, 1.5, [0], [0.5]).tolist() == [0]
        assert calls == []

    def test_empty_times_open_the_span(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            counts = isolated_counts(straight_transition(chain(2), chain(2)),
                                     1.5, None, [])
        assert counts.shape == (0,)
        assert evaluator_span(tracer) == {"samples": 0, "graphs": 0, "certified": 0}


class TestRealPlan:
    """A zoo plan that breaks C, checked instant by instant.

    ``corridor/1`` at 300 robots fails both the anchored and the plain
    count, at different instants (see ROADMAP's "one network" item).
    """

    @pytest.fixture(scope="class")
    def plan(self):
        zoo = ZooConfig(robot_count=300, foi_target_points=500, grid_target=1000)
        scenario = build_zoo_scenario("corridor", 1, zoo)
        return MarchingPlanner(zoo.marching_config("ours (a)")).plan(
            scenario.swarm, scenario.m2, source_foi=scenario.m1
        )

    @pytest.mark.parametrize("anchored", [True, False])
    def test_counts_match_oracle(self, plan, anchored):
        traj, comm_range = plan.trajectory, plan.links.comm_range
        anchors = [int(a) for a in plan.boundary_anchors] if anchored else None
        times = traj.sample_times(128)
        want = oracle_counts(traj, comm_range, anchors, times)
        assert max(want) > 0
        for block, fetch in ((1, 1), (3, 5), (connectivity._WITNESS_BLOCK,
                                               connectivity._POSITION_BLOCK)):
            with mock.patch.object(connectivity, "_WITNESS_BLOCK", block), \
                    mock.patch.object(connectivity, "_POSITION_BLOCK", fetch):
                got = isolated_counts(traj, comm_range, anchors, times)
            assert got.tolist() == want

    def test_position_blocks_change_no_work(self, plan):
        """A witness held across a position-block edge stays held: the
        same instants get a full graph whatever the block size."""
        traj, comm_range = plan.trajectory, plan.links.comm_range
        attrs = []
        for fetch in (5, connectivity._POSITION_BLOCK):
            tracer = obs.Tracer()
            with mock.patch.object(connectivity, "_POSITION_BLOCK", fetch), \
                    obs.activate(tracer):
                isolated_counts(traj, comm_range, None, traj.sample_times(128))
            attrs.append(evaluator_span(tracer))
        assert attrs[0] == attrs[1]
        assert attrs[0]["certified"] > 0


def test_reachability_flood_is_called_only_by_the_evaluator():
    """Definition 2 has one evaluator; no module keeps its own sampler."""
    callers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"(?<!def )\bnodes_connected_to\(", path.read_text())
    )
    assert callers == ["metrics/connectivity.py"]
