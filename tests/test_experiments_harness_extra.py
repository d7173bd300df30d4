"""Extra harness tests: caching, sweeps, evaluation plumbing."""

import numpy as np
import pytest

from repro.experiments import (
    evaluate_trajectory,
    get_scenario,
    run_scenario,
    sweep_separations,
)
from repro.experiments.harness import _CACHE, _CACHE_CAPACITY, _scenario_cache
from repro.network import LinkTable
from repro.robots import straight_transition


class TestScenarioCache:
    def test_cache_reused(self):
        _CACHE.clear()
        spec = get_scenario(1)
        a = _scenario_cache(spec, grid_target=900)
        b = _scenario_cache(spec, grid_target=900)
        assert a is b
        assert len(_CACHE) == 1

    def test_cache_keyed_by_resolution(self):
        _CACHE.clear()
        spec = get_scenario(1)
        a = _scenario_cache(spec, grid_target=900)
        b = _scenario_cache(spec, grid_target=800)
        assert a is not b

    def test_cache_is_bounded(self):
        """The grid target comes from service requests: more distinct
        targets than the capacity must not grow the memo past it."""
        _CACHE.clear()
        spec = get_scenario(1)
        targets = [300 + i for i in range(_CACHE_CAPACITY + 1)]
        for target in targets:
            _scenario_cache(spec, grid_target=target)
        assert len(_CACHE) <= _CACHE_CAPACITY
        # The least recently used entry went first.
        key = (spec.scenario_id, spec.robot_count, spec.comm_range, targets[0])
        assert key not in _CACHE
        _CACHE.clear()

    def test_q_translates_with_separation(self):
        """The canonical Q is reused across separations by translation -
        check the harness's core caching assumption directly."""
        spec = get_scenario(1)
        run_near = run_scenario(spec, 10.0, methods=("Hungarian",),
                                foi_target_points=220, lloyd_grid_target=900,
                                resolution=12)
        run_far = run_scenario(spec, 30.0, methods=("Hungarian",),
                               foi_target_points=220, lloyd_grid_target=900,
                               resolution=12)
        near_q = run_near.evaluations["Hungarian"].final_positions
        far_q = run_far.evaluations["Hungarian"].final_positions
        offset = far_q.mean(axis=0) - near_q.mean(axis=0)
        # The assignment permutation may differ between separations;
        # compare the position *sets*, not per-robot rows.
        a = np.array(sorted(map(tuple, np.round(far_q - offset, 6))))
        b = np.array(sorted(map(tuple, np.round(near_q, 6))))
        assert np.allclose(a, b, atol=1e-5)


class TestEvaluateTrajectory:
    def test_fields(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        links = LinkTable.from_positions(pos, 1.5)
        traj = straight_transition(pos, pos + [5.0, 0.0])
        ev = evaluate_trajectory("x", traj, links, boundary_anchors=[0, 2])
        assert ev.method == "x"
        assert ev.total_distance == pytest.approx(15.0)
        assert ev.stable_link_ratio == 1.0
        assert ev.globally_connected
        assert ev.connectivity_flag == "Y"
        assert ev.final_positions.shape == (3, 2)


class TestSweep:
    def test_sweep_structure(self):
        spec = get_scenario(1)
        sweep = sweep_separations(
            spec,
            separation_factors=(12.0, 24.0),
            methods=("Hungarian", "direct translation"),
            foi_target_points=220,
            lloyd_grid_target=900,
            resolution=12,
        )
        assert sweep.separations == [12.0, 24.0]
        assert len(sweep.series("distance_ratio", "Hungarian")) == 2
        # Hungarian normalises to itself.
        assert all(
            r == pytest.approx(1.0)
            for r in sweep.series("distance_ratio", "Hungarian")
        )

    def test_distance_ratio_accessor(self):
        spec = get_scenario(1)
        run = run_scenario(
            spec, 12.0, methods=("Hungarian", "direct translation"),
            foi_target_points=220, lloyd_grid_target=900, resolution=12,
        )
        assert run.distance_ratio("direct translation") >= 1.0 - 1e-9
