"""The one Definition-2 evaluator: ``repro.metrics.connectivity``.

``isolated_counts`` is checked against a straightforward per-instant
oracle kept here - on hypothesis trajectories at several witness block
sizes and on a real plan that breaks C - the left-limit and empty-anchor
rules are pinned on small hand-built trajectories, and a source scan
keeps every caller of the reachability flood inside the evaluator.  The
certified ``connectivity_report`` must equal, field for field, the
report built from ``isolated_counts`` without certified links and the
dense oracle's, on hypothesis trajectories far from the origin and on
every seed-0 benchmark plan.
"""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro import obs
from repro.coverage.lloyd import LloydConfig
from repro.experiments.harness import evaluate_trajectory
from repro.experiments.scenarios import get_scenario
from repro.experiments.zoo.campaign import ZooConfig, build_zoo_scenario
from repro.marching import MarchingConfig, MarchingPlanner
from repro.metrics import (
    ConnectivityReport, connectivity, connectivity_report, isolated_counts,
)
from repro.missions import MissionConfig, MissionSpec, run_mission
from repro.network import LinkTable, links_alive
from repro.robots import RadioSpec, Swarm, SwarmTrajectory, straight_transition

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


def dense_counts(traj, comm_range, anchors, times, side="right"):
    """:func:`oracle_counts` with every robot present, fast enough for a
    thousand robots: every pair's ``hypot`` test (after the exact
    prefilter ``|dx|, |dy| <= r``, since ``hypot`` is at least either),
    components labelled by scipy instead of a Python flood."""
    out = []
    for t in times:
        x, y = traj.positions_over(np.array([t]), side=side)[0].T
        dx, dy = x[:, None] - x, y[:, None] - y
        i, j = np.nonzero((np.abs(dx) <= comm_range) & (np.abs(dy) <= comm_range))
        near = np.hypot(dx[i, j], dy[i, j]) <= comm_range
        i, j = i[near], j[near]
        graph = coo_matrix((np.ones(len(i)), (i, j)), shape=dx.shape)
        labels = connected_components(graph, directed=False)[1]
        sizes = np.bincount(labels)
        if anchors:
            reached = sizes[np.unique(labels[list(anchors)])].sum()
        else:
            reached = sizes.max()
        out.append(len(x) - int(reached))
    return out


def oracle_report(traj, comm_range, anchors, resolution=32, counts=oracle_counts):
    """``connectivity_report``'s fields, each instant from ``counts``: a
    dense oracle, or ``isolated_counts`` for the uncertified sampler."""
    right, left = traj.sample_times(resolution), traj.discontinuity_times()
    right_counts = counts(traj, comm_range, anchors, right)
    left_counts = np.asarray(counts(traj, comm_range, anchors, left, side="left"),
                             dtype=int)
    times = np.concatenate([right, left])
    every = np.concatenate([np.asarray(right_counts, dtype=int), left_counts])
    failed = every > 0
    return ConnectivityReport(
        connected=not failed.any(),
        first_failure_time=float(times[failed].min()) if failed.any() else None,
        max_isolated=int(every.max(initial=0)),
        samples=len(times),
        left_limit_isolated=int(left_counts.max(initial=0)),
    )


def check_report(traj, comm_range, anchors, resolution=32, counts=oracle_counts):
    """The certified report equals the uncertified one and the oracle's.

    Returns the report and the certificate's and the evaluators' span
    attributes.
    """
    tracer = obs.Tracer()
    with obs.activate(tracer):
        rep = connectivity_report(traj, comm_range, anchors, resolution)
    assert rep == oracle_report(traj, comm_range, anchors, resolution,
                                counts=isolated_counts)
    assert rep == oracle_report(traj, comm_range, anchors, resolution, counts)
    spans = tracer.get_trace()
    (top,) = [r.attributes for r in spans if r.name == "metrics.connectivity_report"]
    evaluators = [r.attributes for r in spans if r.name == "metrics.connectivity"]
    # The witness is the certified forest plus one bridge per extra
    # component; a witness that did not prefer certified links would
    # test more.
    assert all(a["bridges"] in (0, top["components"] - 1) for a in evaluators)
    assert top["proved"] == (top["components"] == 1) == (evaluators == [])
    return rep, top, evaluators


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
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_match_oracle(self, traj, comm_range, anchor_bits, side,
                                 crashes, resolution, reverse, block):
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
            "certified_links": 0, "bridges": 3,
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
        assert evaluator_span(tracer) == {
            "samples": 0, "graphs": 0, "certified": 0,
            "certified_links": 0, "bridges": 0,
        }


@st.composite
def far_trajectories(draw):
    """:func:`trajectories` moved up to 1e7 from the origin.

    Every coordinate stays an exact quarter, so pairs at exactly the
    range stay exactly there, but positions between waypoints round at
    the scale of the offset.
    """
    traj = draw(trajectories())
    far = st.sampled_from([0.0, -3.5, 2.0**20, 8388607.0, 1e7, -1e7])
    offset = np.array([draw(far), draw(far)])
    return SwarmTrajectory(traj.offsets, traj.times, traj.xy + offset,
                           traj.t_start, traj.t_end)


class TestCertificate:
    @given(
        traj=far_trajectories(),
        comm_range=st.sampled_from([0.75, 1.0, 1.25, 1.5, 2.5]),
        anchor_bits=st.integers(0, 2**MAX_ROBOTS - 1),
        resolution=st.integers(2, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_certified_report_is_the_samplers(self, traj, comm_range,
                                              anchor_bits, resolution):
        anchors = [j for j in range(traj.robot_count) if anchor_bits >> j & 1]
        rep, _, _ = check_report(traj, comm_range, anchors, resolution)
        assert rep == oracle_report(traj, comm_range, anchors, resolution,
                                    counts=dense_counts)
        # The band law itself: a certified link is up at every instant
        # the sampler reads, from either side.
        right, left = traj.sample_times(resolution), traj.discontinuity_times()
        links = connectivity._certified_links(
            traj, comm_range, np.concatenate([right, left])
        )
        for times, side in ((right, "right"), (left, "left")):
            table = traj.positions_over(times, side=side)
            assert links_alive(links, table, comm_range).all()

    def test_a_link_held_at_range_is_not_certified(self):
        # Robot 0 has a row half-way along its line and robot 1 none, so
        # the pair is exactly 1.25 apart throughout but the two positions
        # round differently near 2**23: the sampler reads the link just
        # out of range at some of 19 grid instants.  Without the band
        # the kernel, whose instants read exactly 1.25, would certify it.
        a0, v = np.array([8388607.5, 8.5]), np.array([3.0, -2.25])
        b0 = a0 + [0.75, -1.0]
        traj = SwarmTrajectory([0, 3, 5], [0.0, 0.5, 1.0, 0.0, 1.0],
                               [a0, a0 + 0.5 * v, a0 + v, b0, b0 + v], 0.0, 1.0)
        times = traj.sample_times(19)
        table = traj.positions_over(times)
        gap = np.hypot(*(table[:, 1] - table[:, 0]).T)
        assert (gap == 1.25).any() and (gap > 1.25).any()
        rep, top, _ = check_report(traj, 1.25, None, 19)
        assert rep.max_isolated == 1
        assert top["certified_links"] == 0

    def test_a_forest_that_connects_the_swarm_samples_nothing(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled although the forest proved C")

        monkeypatch.setattr(connectivity, "isolated_counts", no_sampling)
        traj = straight_transition(chain(5), chain(5) + [30.0, 4.0])
        tracer = obs.Tracer()
        with obs.activate(tracer):
            rep = connectivity_report(traj, 1.5, [0])
        assert rep == ConnectivityReport(True, None, 0, len(traj.sample_times(32)), 0)
        (record,) = tracer.get_trace()
        assert record.attributes == {
            "samples": rep.samples, "certified_links": 4, "components": 1,
            "proved": True,
        }

    def test_only_the_bridge_between_two_forests_is_tested(self):
        # Two chains of three; the right one drifts out of range of the
        # left one and back, so the link between them is not certified.
        paths = [([p, p], [0.0, 1.0]) for p in chain(3)] + [
            ([p, p + [0.6, 0.0], p], [0.0, 0.5, 1.0]) for p in chain(3) + [3.0, 0.0]
        ]
        traj = SwarmTrajectory.from_paths(paths, 0.0, 1.0)
        rep, top, evaluators = check_report(traj, 1.5, [0])
        assert rep.max_isolated == 3 and not rep.connected
        assert (top["certified_links"], top["components"]) == (4, 2)
        assert evaluators[0]["bridges"] == 1

    def test_a_bridge_is_read_from_the_left_at_a_jump(self):
        # Robot 1 leaves robot 0 and jumps back at 0.5, as in jump_pair;
        # robot 2 jumps (within range of robot 0) at 0.25, so the
        # left-limit pass has a witness from 0.25 whose one bridge is
        # robot 1's link.  A parked chain off robot 0 makes those two
        # endpoints few enough to be read alone.
        paths = [
            ([[0.0, 0.0]], [0.0]),
            ([[1.0, 0.0], [1.0, 0.0], [5.0, 0.0], [1.0, 0.0]], [0.0, 0.25, 0.5, 0.5]),
            ([[0.0, 1.0], [0.0, -1.0]], [0.25, 0.25]),
        ] + [([[-1.0 - k, 0.0]], [0.0]) for k in range(15)]
        traj = SwarmTrajectory.from_paths(paths, 0.0, 1.0)
        assert traj.discontinuity_times().tolist() == [0.25, 0.5]
        rep, top, evaluators = check_report(traj, 1.5, None)
        assert rep.left_limit_isolated == 1 and not rep.connected
        assert evaluators[1]["bridges"] == top["components"] - 1 == 1

    def test_instants_outside_the_interval_get_no_certificate(self):
        # A row a hair before t_start is a critical time the sampler
        # reads, but the kernel starts at t_start.
        traj = SwarmTrajectory([0, 2, 3], [-5e-10, 1.0, 0.0],
                               [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], 0.0, 1.0)
        times = traj.sample_times(8)
        assert times.min() < traj.t_start
        assert len(connectivity._certified_links(traj, 1.5, times)) == 0
        check_report(traj, 1.5, None, 8)


def paper_plans():
    """The seed-0 ``paper_holes`` benchmark plans: scenarios 3-7, 144
    robots, separation 20, methods alternating."""
    for label, scenario_id, method in (("3b", 3, "b"), ("4a", 4, "a"), ("5b", 5, "b"),
                                       ("6a", 6, "a"), ("7b", 7, "b")):
        spec = get_scenario(scenario_id)
        m1, m2 = spec.build(20.0)
        swarm = Swarm.deploy_lattice(
            m1, spec.robot_count, RadioSpec.from_comm_range(spec.comm_range)
        )
        config = MarchingConfig(method=method, foi_target_points=500,
                                lloyd=LloydConfig(grid_target=2000))
        yield label, MarchingPlanner(config).plan(swarm, m2, source_foi=m1)


def swarm_1k_plans():
    """The seed-0 ``swarm_1k`` benchmark plans: 1,000-robot zoo cases."""
    zoo = ZooConfig(robot_count=1000, foi_target_points=1000, grid_target=3000,
                    separation_factor=5.0)
    for family, seed in (("rough", 0), ("rough", 1), ("archipelago", 0)):
        scenario = build_zoo_scenario(family, seed, zoo)
        yield f"{family}/{seed}", MarchingPlanner(zoo.marching_config("ours (a)")).plan(
            scenario.swarm, scenario.m2, source_foi=scenario.m1
        )


def mission_corridor_plans():
    """Every epoch's plan of the seed-0 ``mission_corridor`` mission."""
    plans, plan = [], MarchingPlanner.plan

    def recorded(self, *args, **kwargs):
        plans.append(plan(self, *args, **kwargs))
        return plans[-1]

    spec = MissionSpec(family="corridor", seed=0, epochs=8, motion="drift+deform",
                       drift_step=0.5)
    config = MissionConfig(robot_count=144, foi_target_points=400, grid_target=1500,
                           lloyd_max_iterations=20, resolution=16)
    with mock.patch.object(MarchingPlanner, "plan", recorded):
        run_mission(spec, config)
    return [(f"epoch {k}", p) for k, p in enumerate(plans)]


class TestBenchmarkPlans:
    """Every seed-0 plan the benchmark verifies: the certified report is
    the sampler's and the dense oracle's."""

    @pytest.mark.parametrize("build", [paper_plans, mission_corridor_plans])
    def test_144_robot_plans(self, build):
        plans = list(build())
        assert len(plans) in (5, 8)
        for label, plan in plans:
            check_report(plan.trajectory, plan.links.comm_range,
                         [int(a) for a in plan.boundary_anchors])

    def test_1k_plans(self):
        for label, plan in swarm_1k_plans():
            rep, top, evaluators = check_report(
                plan.trajectory, plan.links.comm_range,
                [int(a) for a in plan.boundary_anchors], counts=dense_counts,
            )
            assert rep.connected, label


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
        for block in (1, 3, connectivity._WITNESS_BLOCK):
            with mock.patch.object(connectivity, "_WITNESS_BLOCK", block):
                got = isolated_counts(traj, comm_range, anchors, times)
            assert got.tolist() == want

    @pytest.mark.parametrize("anchored", [True, False])
    def test_certified_report(self, plan, anchored):
        """The certified report finds the same failures the sampler did."""
        traj, comm_range = plan.trajectory, plan.links.comm_range
        anchors = [int(a) for a in plan.boundary_anchors] if anchored else None
        rep, top, _ = check_report(traj, comm_range, anchors)
        assert top["components"] > 1
        first, worst = (0.9777777777777777, 2) if anchored else (0.3548387096774194, 33)
        assert rep == ConnectivityReport(False, first, worst, 41, 0)

    def test_position_blocks_change_no_work(self, plan):
        """A witness held across the edge of one block of position reads
        stays held: the same instants get a full graph whatever the
        block size."""
        traj, comm_range = plan.trajectory, plan.links.comm_range
        attrs = []
        for block in (5, connectivity._WITNESS_BLOCK):
            tracer = obs.Tracer()
            with mock.patch.object(connectivity, "_WITNESS_BLOCK", block), \
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
