"""Tests for the random scenario generator + fuzz runs of the planner."""

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.errors import ScenarioError
from repro.exec import parallel_map
from repro.experiments import random_foi, random_scenario
from repro.experiments.zoo.validate import hole_clearance as clearance_of
from repro.marching import MarchingConfig, MarchingPlanner
from repro.metrics import connectivity_report

FAST = MarchingConfig(
    foi_target_points=200, lloyd=LloydConfig(grid_target=700, max_iterations=20)
)


class TestRandomFoi:
    def test_area_respected(self, rng):
        foi = random_foi(rng, area=123_456.0)
        assert foi.area == pytest.approx(123_456.0)

    def test_deterministic_per_seed(self):
        a = random_foi(np.random.default_rng(5), area=100_000.0)
        b = random_foi(np.random.default_rng(5), area=100_000.0)
        assert np.array_equal(a.outer.vertices, b.outer.vertices)
        assert len(a.holes) == len(b.holes)

    def test_zero_holes_possible(self):
        foi = random_foi(np.random.default_rng(0), max_holes=0)
        assert not foi.has_holes

    def test_holes_inside(self, rng):
        for seed in range(5):
            foi = random_foi(np.random.default_rng(seed), max_holes=2)
            for hole in foi.holes:
                assert foi.outer.contains(hole.vertices).all()


class TestHoleClearance:
    """random_foi must enforce hole clearance instead of pinching."""

    def test_negative_clearance_rejected(self):
        with pytest.raises(ScenarioError, match="non-negative"):
            random_foi(np.random.default_rng(0), hole_clearance=-0.1)

    def test_impossible_clearance_raises(self):
        # A clearance wider than the blob itself cannot be satisfied by
        # any shrink; the generator must say so, not degrade silently.
        holed = [s for s in range(20)
                 if random_foi(np.random.default_rng(s), max_holes=2).has_holes]
        assert holed, "no holed draw in the probe range"
        with pytest.raises(ScenarioError, match="clearance"):
            random_foi(np.random.default_rng(holed[0]), max_holes=2,
                       hole_clearance=2.0)

    def test_clearance_enforced_in_unit_terms(self):
        # Unit-space clearance scales with sqrt(area); the unit blob's
        # outer area is < 2.5^2, so scaled clearance / sqrt(area) must
        # stay above hole_clearance / 2.5.
        want = 0.3
        checked = 0
        for seed in range(20):
            foi = random_foi(np.random.default_rng(seed), area=10_000.0,
                             max_holes=2, hole_clearance=want)
            for hole in foi.holes:
                rel = clearance_of(foi.outer, hole) / np.sqrt(foi.outer.area)
                assert rel >= want / 2.5
                checked += 1
        assert checked > 0

    def test_pinched_seed_now_kept_with_clearance(self):
        # Seed 50 used to hit the silent drop-all-holes fallback for M1;
        # the clearance shrink now keeps a valid hole instead.
        sc = random_scenario(seed=50, robot_count=36)
        for foi in (sc.m1, sc.m2):
            for hole in foi.holes:
                assert clearance_of(foi.outer, hole) > 0.0


def _scenario_digest(seed: int) -> str:
    """Module-level so the process pool can pickle it."""
    import hashlib

    sc = random_scenario(seed, robot_count=36)
    h = hashlib.sha256()
    for arr in (sc.m1.outer.vertices, sc.m2.outer.vertices, sc.swarm.positions):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    for foi in (sc.m1, sc.m2):
        for hole in foi.holes:
            h.update(np.ascontiguousarray(hole.vertices, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestGeneratorEdgeCases:
    def test_max_holes_zero_never_holed(self):
        for seed in range(8):
            foi = random_foi(np.random.default_rng(seed), max_holes=0)
            assert not foi.has_holes

    def test_minimum_area(self):
        # Tiny target areas still produce valid, correctly-sized regions.
        foi = random_foi(np.random.default_rng(3), area=1.0, max_holes=2)
        assert foi.area == pytest.approx(1.0)
        for hole in foi.holes:
            assert foi.outer.contains(hole.vertices).all()

    def test_seed_to_scenario_deterministic_across_processes(self):
        seeds = [0, 1, 50]
        local = [_scenario_digest(s) for s in seeds]
        remote = parallel_map(_scenario_digest, seeds, workers=2)
        assert local == remote


class TestRandomScenario:
    def test_swarm_deployable_and_connected(self):
        sc = random_scenario(seed=1, robot_count=49)
        assert sc.swarm.size == 49
        assert sc.swarm.is_connected()
        assert sc.m1.contains(sc.swarm.positions).all()

    def test_separation_in_range(self):
        sc = random_scenario(seed=2, separation_range=(12.0, 14.0))
        gap = np.hypot(*(sc.m2.centroid - sc.m1.centroid))
        assert 12.0 * sc.comm_range <= gap <= 14.0 * sc.comm_range + 1e-6

    def test_deterministic(self):
        a = random_scenario(seed=7)
        b = random_scenario(seed=7)
        assert np.array_equal(a.swarm.positions, b.swarm.positions)
        assert np.allclose(a.m2.centroid, b.m2.centroid)


class TestFuzzPlanner:
    """The planner's guarantees must hold on arbitrary valid geometry,
    not just the paper's seven scenarios."""

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_plan_on_random_scenarios(self, seed):
        sc = random_scenario(seed, robot_count=49, max_holes=1,
                             separation_range=(8.0, 20.0))
        result = MarchingPlanner(FAST).plan(sc.swarm, sc.m2)
        # Guarantee 1: global connectivity.
        rep = connectivity_report(
            result.trajectory, sc.comm_range, result.boundary_anchors
        )
        assert rep.connected, f"seed {seed} lost connectivity"
        # Guarantee 2: everyone ends inside the target free region.
        assert sc.m2.contains(result.final_positions).all()
        # Guarantee 3: distance sane (>= straight-line lower bound).
        d = result.total_distance
        lower = float(
            np.hypot(*(result.final_positions - sc.swarm.positions).T).sum()
        )
        assert d >= lower - 1e-6
        assert d < 5.0 * lower + 1e5
