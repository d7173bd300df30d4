"""Definition 1 from each link's own rows, against the sampled oracle.

:func:`repro.network.links_alive_throughout` tests each link at its two
robots' row instants (plus ``t_start``, ``t_end`` and left-sided limits
at their jumps).  :func:`tests.links_oracle.sampled_stable_mask` tests
every link at every global sample instant.  By convexity of a pair's
distance between row instants the two masks agree; these tests hold
them equal on hand-made edge cases, on random ragged trajectories and on
real plans.
"""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import stable_link_report
from repro.network import LinkTable, links_alive_throughout
from repro.network import links as links_module
from repro.obs import Tracer, activate
from repro.robots import SwarmTrajectory
from tests.links_oracle import sampled_stable_mask

REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def kernel_matches_oracle(links, traj, resolutions=(2, 9, 32)):
    """The kernel's mask, checked against the oracle's at each resolution.

    Which instants the kernel tests as whole-swarm snapshots is a cost
    choice only, so the mask is also checked with every row's instant
    a snapshot and with only the two ends: small swarms would otherwise
    never reach the link-by-link path.
    """
    got = links_alive_throughout(links, traj)
    assert got.dtype == bool and got.shape == (links.link_count,)
    for share in (1e-9, 2.0):
        with mock.patch.object(links_module, "_SWARM_SHARE", share):
            assert links_alive_throughout(links, traj).tolist() == got.tolist()
    for resolution in resolutions:
        want = sampled_stable_mask(links, traj, resolution)
        assert got.tolist() == want.tolist(), resolution
    return got


def pair(a_rows, b_rows, comm_range, t_start=0.0, t_end=1.0):
    """Two robots, one link between them, from ``(times, xy)`` rows."""
    paths = [(xy, times) for times, xy in (a_rows, b_rows)]
    traj = SwarmTrajectory.from_paths(paths, t_start, t_end)
    return LinkTable(np.array([[0, 1]]), comm_range), traj


class TestEdgeCases:
    def test_zero_links(self):
        traj = SwarmTrajectory([0, 1, 2], [0.0, 0.0], [[0, 0], [9, 0]], 0.0, 1.0)
        links = LinkTable(np.zeros((0, 2), dtype=int), 1.0)
        assert kernel_matches_oracle(links, traj).shape == (0,)
        assert stable_link_report(links, traj).ratio == 1.0

    def test_stationary_pair_at_exactly_range(self):
        links, traj = pair(([0.0], [[0.0, 0.0]]), ([0.0], [[0.3, 0.4]]), 0.5)
        assert kernel_matches_oracle(links, traj).tolist() == [True]

    def test_co_moving_pair_at_exactly_range(self):
        links, traj = pair(([0.0, 1.0], [[0, 0], [2, 0]]),
                           ([0.0, 1.0], [[0, 1], [2, 1]]), 1.0)
        assert kernel_matches_oracle(links, traj).tolist() == [True]

    def test_break_between_partner_rows(self):
        # Robot 1 swings out and back between robot 0's only two rows.
        links, traj = pair(([0.0, 1.0], [[0, 0], [1, 0]]),
                           ([0.0, 0.3, 1.0], [[0, 1], [0, 5], [1, 1]]), 2.0)
        assert kernel_matches_oracle(links, traj).tolist() == [False]

    def test_jump_by_one_robot(self):
        # Out of range just before robot 1 jumps back, in range after.
        links, traj = pair(([0.0], [[0, 0]]),
                           ([0.0, 0.5, 0.5, 1.0], [[1, 0], [5, 0], [1, 0], [1, 0]]),
                           2.0)
        assert kernel_matches_oracle(links, traj).tolist() == [False]

    def test_both_robots_jump_at_one_instant(self):
        # Both jump by the same vector at t = 0.5: in range on each side.
        links, traj = pair(
            ([0.0, 0.5, 0.5, 1.0], [[0, 0], [0, 0], [10, 0], [10, 0]]),
            ([0.0, 0.5, 0.5, 1.0], [[1, 0], [1, 0], [11, 0], [11, 0]]),
            1.0,
        )
        assert kernel_matches_oracle(links, traj).tolist() == [True]
        # Only robot 1's pre-jump point is out of range.
        links, traj = pair(
            ([0.0, 0.5, 0.5, 1.0], [[0, 0], [0, 0], [10, 0], [10, 0]]),
            ([0.0, 0.5, 0.5, 1.0], [[1, 0], [3, 0], [11, 0], [11, 0]]),
            1.0,
        )
        assert kernel_matches_oracle(links, traj).tolist() == [False]

    def test_late_starter_and_early_finisher(self):
        # Robot 1 waits until 0.6, robot 0 arrives at 0.4: they are
        # farthest apart between those rows, which neither shares.
        links, traj = pair(([0.0, 0.4], [[0, 0], [2, 0]]),
                           ([0.6, 1.0], [[0, 0], [2, 0]]), 1.9)
        assert kernel_matches_oracle(links, traj).tolist() == [False]
        links = LinkTable(np.array([[0, 1]]), 2.0)
        assert kernel_matches_oracle(links, traj).tolist() == [True]

    def test_single_row_robots(self):
        traj = SwarmTrajectory([0, 1, 3, 4], [0.5, 0.0, 1.0, 0.2],
                               [[0, 0], [1, 0], [3, 0], [0, 1]], 0.0, 1.0)
        links = LinkTable(np.array([[0, 1], [0, 2], [1, 2]]), 2.5)
        assert kernel_matches_oracle(links, traj).tolist() == [False, True, False]

    @pytest.mark.parametrize("outside, counted", [
        (0.0, True), (-5e-10, True), (5e-10, True), (1e-6, False),
    ])
    def test_jumps_at_and_just_outside_the_ends(self, outside, counted):
        # Robot 1 jumps between (0, 1) and (0, 10) at ``outside`` past an
        # end of the interval.  Within 1e-9 the jump is an instant of the
        # transition and its far side breaks the link; farther out, the
        # robot sits at (0, 1) for the whole interval.
        near, far = [0, 1], [0, 10]
        t0, t1 = -outside, 1.0 + outside
        for rows in (([0.5, t1, t1], [near, near, far]),
                     ([t0, t0, 0.5], [far, near, near])):
            links, traj = pair(([0.0], [[0, 0]]), rows, 5.0)
            assert kernel_matches_oracle(links, traj).tolist() == [not counted]

    def test_rows_just_outside_the_ends(self):
        # Rows a hair past either end are instants too; robot 1 passes
        # through (0, 10) exactly there.
        for t in (-5e-10, 1.0 + 5e-10):
            links, traj = pair(([0.0], [[0, 0]]),
                               ([0.5, t] if t > 0 else [t, 0.5],
                                [[0, 1], [0, 10]] if t > 0 else [[0, 10], [0, 1]]),
                               9.99999)
            assert kernel_matches_oracle(links, traj).tolist() == [False]

    def test_report_span(self):
        links, traj = pair(([0.0], [[0, 0]]),
                           ([0.0, 0.5, 0.5, 1.0], [[1, 0], [5, 0], [1, 0], [1, 0]]),
                           2.0)
        tracer = Tracer()
        with activate(tracer):
            report = stable_link_report(links, traj)
        (record,) = [r for r in tracer.get_trace() if r.name == "metrics.stable_links"]
        attrs = record.attributes
        assert "samples" not in attrs
        assert attrs["links"] == 1 and attrs["jumps"] == 1
        assert attrs["stable"] == report.stable_links == 0
        assert attrs["rows"] >= 2


# -- random ragged trajectories -------------------------------------------

# A dyadic grid: every position, slope and blend below is exact, so a
# pair at exactly the range stays there at every instant either rule
# computes, and the two masks must agree even on such ties.
quarter = st.integers(-8, 8).map(lambda v: v / 4.0)
ranges = st.integers(1, 12).map(lambda v: v / 4.0)
eighth = st.integers(-1, 9).map(lambda v: v / 8.0)


@st.composite
def dyadic_robot(draw):
    """Rows of one robot: single, stationary, jumping, late or early."""
    times = sorted(draw(st.lists(eighth, min_size=1, max_size=5)))
    xy = [[draw(quarter), draw(quarter)] for _ in times]
    if draw(st.booleans()):
        xy = [xy[0]] * len(xy)
    return np.array(xy, dtype=float), np.array(times)


# Off the grid: rows at, and just inside or outside, the interval ends,
# and two interior instants (one drawn twice as often, so robots share it).
near_ends = st.sampled_from([0.0, 1.0, 1e-10, -1e-10, 1.0 + 1e-10, 1.0 - 1e-10,
                             1e-6, -1e-6, 1.0 + 1e-6, 0.37, 0.37, 0.81])


@st.composite
def generic_robot(draw):
    """Rows of one robot at arbitrary points, timed near the ends."""
    times = sorted(draw(st.lists(near_ends, min_size=1, max_size=5)))
    coord = st.floats(-2, 2, allow_nan=False)
    xy = [[draw(coord), draw(coord)] for _ in times]
    return np.array(xy, dtype=float), np.array(times)


def all_pairs(n):
    return np.array([(i, j) for i in range(n) for j in range(i + 1, n)]).reshape(-1, 2)


class TestAgainstSampledOracle:
    @given(rows=st.lists(dyadic_robot(), min_size=1, max_size=6),
           comm_range=ranges, everyone=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_dyadic_trajectories(self, rows, comm_range, everyone):
        traj = SwarmTrajectory.from_paths(rows, 0.0, 1.0)
        pairs = all_pairs(len(rows))
        if not everyone:  # the links at t_start, as a plan captures them
            start = traj.positions_over([0.0])[0]
            pairs = LinkTable.from_positions(start, comm_range).links
        kernel_matches_oracle(LinkTable(pairs, comm_range), traj, resolutions=(9, 17))

    @given(rows=st.lists(generic_robot(), min_size=2, max_size=6),
           comm_range=st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_rows_near_the_ends(self, rows, comm_range):
        traj = SwarmTrajectory.from_paths(rows, 0.0, 1.0)
        kernel_matches_oracle(LinkTable(all_pairs(len(rows)), comm_range), traj)

    @given(rows=st.lists(dyadic_robot(), min_size=2, max_size=6),
           comm_range=ranges, cells=st.sampled_from([1, 3, 2**15]))
    @settings(max_examples=100, deadline=None)
    def test_snapshot_blocks_change_nothing(self, rows, comm_range, cells):
        traj = SwarmTrajectory.from_paths(rows, 0.0, 1.0)
        links = LinkTable(all_pairs(len(rows)), comm_range)
        with mock.patch.object(links_module, "_SNAPSHOT_CELLS", cells), \
                mock.patch.object(links_module, "_SWARM_SHARE", 1e-9):
            got = links_alive_throughout(links, traj)
        assert got.tolist() == sampled_stable_mask(links, traj, 9).tolist()


# -- real plans -------------------------------------------------------------


def paper_plans():
    """Paper scenarios 3-7 at 144 robots, the sizes of the bench's paper cases."""
    from repro.coverage.lloyd import LloydConfig
    from repro.experiments.scenarios import get_scenario
    from repro.marching import MarchingConfig, MarchingPlanner
    from repro.robots import RadioSpec, Swarm

    for scenario_id, method in ((3, "b"), (4, "a"), (5, "b"), (6, "a"), (7, "b")):
        spec = get_scenario(scenario_id)
        m1, m2 = spec.build(20.0)
        swarm = Swarm.deploy_lattice(
            m1, spec.robot_count, RadioSpec.from_comm_range(spec.comm_range)
        )
        config = MarchingConfig(method=method, foi_target_points=500,
                                lloyd=LloydConfig(grid_target=2000))
        result = MarchingPlanner(config).plan(swarm, m2, source_foi=m1)
        yield f"{scenario_id}{method}", result.links, result.trajectory


def zoo_plans():
    """The 1,000-robot zoo cases rough/0, rough/1 and archipelago/0."""
    from repro.experiments.zoo.campaign import ZooConfig, build_zoo_scenario
    from repro.marching import MarchingPlanner

    zoo = ZooConfig(robot_count=1000, foi_target_points=1000, grid_target=3000,
                    separation_factor=5.0)
    for family, seed in (("rough", 0), ("rough", 1), ("archipelago", 0)):
        scenario = build_zoo_scenario(family, seed, zoo)
        result = MarchingPlanner(zoo.marching_config("ours (a)")).plan(
            scenario.swarm, scenario.m2, source_foi=scenario.m1
        )
        yield f"{family}/{seed}", result.links, result.trajectory


def mission_plans():
    """Every epoch of the 8-epoch drift+deform corridor mission at 144 robots."""
    import repro.missions.runner as runner
    from repro.missions import MissionConfig, MissionSpec

    spec = MissionSpec(family="corridor", seed=0, epochs=8, motion="drift+deform",
                       drift_step=0.5)
    config = MissionConfig(robot_count=144, foi_target_points=400, grid_target=1500,
                           lloyd_max_iterations=20, resolution=16)
    seen = []
    real = runner.stable_link_ratio

    def record(links, traj, *args):
        seen.append((f"epoch {len(seen)}", links, traj))
        return real(links, traj, *args)

    with mock.patch.object(runner, "stable_link_ratio", record):
        runner.run_mission(spec, config)
    assert len(seen) == 8
    return seen


@pytest.mark.parametrize("plans", [paper_plans, zoo_plans, mission_plans])
def test_kernel_equals_sampler_on_real_plans(plans):
    """The masks agree, link for link, on every seed-0 plan the pinned
    paper, 1k-zoo and mission documents are made of."""
    differ = {}
    for label, links, traj in plans():
        got = links_alive_throughout(links, traj)
        want = sampled_stable_mask(links, traj, 32)
        differ[label] = int(np.count_nonzero(got != want))
        assert 0 < got.sum() <= links.link_count
    assert differ == dict.fromkeys(differ, 0)


def test_sampled_definition1_stays_out_of_src():
    """Definition 1 has one implementation under ``src/repro``: the
    per-link kernel.  The sampled twins live on only in the oracle."""
    forbidden = [r"\b_stable_over\b", r"\bstable_mask_over\b",
                 r"\bstable_link_ratio_over\b"]
    found = {
        pattern: sorted(
            str(path.relative_to(REPRO_SRC)) for path in REPRO_SRC.rglob("*.py")
            if re.search(pattern, path.read_text())
        )
        for pattern in forbidden
    }
    assert found == {pattern: [] for pattern in forbidden}
