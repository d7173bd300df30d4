"""Equivalence tests: distributed rotation search and distributed planner."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.distributed import DistributedRotationSearch
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.harmonic import InducedMap, compute_disk_map, hierarchical_angle_search
from repro.marching import DistributedMarchingPlanner, MarchingConfig, MarchingPlanner
from repro.mesh import triangulate_foi
from repro.metrics import connectivity_report, stable_link_ratio
from repro.network import LinkTable, extract_triangulation
from repro.network.links import links_alive
from repro.robots import RadioSpec, Swarm

MARCHING_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "marching"

FAST = MarchingConfig(
    foi_target_points=220, lloyd=LloydConfig(grid_target=800, max_iterations=25)
)


@pytest.fixture(scope="module")
def setup():
    radio = RadioSpec.from_comm_range(80.0)
    m1 = FieldOfInterest(
        ellipse_polygon(1.0, 1.0, samples=40).scaled_to_area(150_000.0), name="m1"
    )
    swarm = Swarm.deploy_lattice(m1, 49, radio)
    m2 = FieldOfInterest(
        ellipse_polygon(1.4, 0.8, samples=40).scaled_to_area(130_000.0), name="m2"
    ).translated((1400.0, 200.0))
    return swarm, m2


class TestDistributedRotationSearch:
    def _pieces(self, setup):
        swarm, m2 = setup
        rc = swarm.radio.comm_range
        links = LinkTable.from_graph(swarm.communication_graph())
        t_mesh, vmap = extract_triangulation(swarm.positions, rc)
        assert len(vmap) == swarm.size
        dm_t = compute_disk_map(t_mesh)
        induced = InducedMap(compute_disk_map(triangulate_foi(m2, target_points=220).mesh))
        return swarm, rc, links, t_mesh, dm_t, induced

    def test_matches_centralized_angle(self, setup):
        swarm, rc, links, t_mesh, dm_t, induced = self._pieces(setup)
        search = DistributedRotationSearch(
            induced,
            dm_t.robot_disk_positions,
            swarm.positions,
            links.links,
            rc,
            t_mesh.adjacency,
        )
        result, targets = search.run(depth=4, initial_samples=4, maximize=True)

        disk = dm_t.robot_disk_positions

        def objective(angle: float) -> float:
            q = induced.map_points(disk, rotation=angle)
            return float(links_alive(links.links, q, rc).sum())

        central = hierarchical_angle_search(objective, depth=4, initial_samples=4)
        assert result.angle == pytest.approx(central.angle, abs=1e-12)
        # Flood sums every link at both endpoints: exactly 2x the count.
        assert result.score == pytest.approx(2.0 * central.score)
        assert targets.shape == (swarm.size, 2)

    def test_minimize_mode_matches(self, setup):
        swarm, rc, links, t_mesh, dm_t, induced = self._pieces(setup)
        search = DistributedRotationSearch(
            induced, dm_t.robot_disk_positions, swarm.positions,
            links.links, rc, t_mesh.adjacency,
        )
        result, _ = search.run(depth=3, initial_samples=4, maximize=False)

        disk = dm_t.robot_disk_positions

        def objective(angle: float) -> float:
            q = induced.map_points(disk, rotation=angle)
            d = q - swarm.positions
            return float(np.hypot(d[:, 0], d[:, 1]).sum())

        central = hierarchical_angle_search(
            objective, depth=3, initial_samples=4, maximize=False
        )
        assert result.angle == pytest.approx(central.angle, abs=1e-12)

    def test_flood_round_accounting(self, setup):
        swarm, rc, links, t_mesh, dm_t, induced = self._pieces(setup)
        search = DistributedRotationSearch(
            induced, dm_t.robot_disk_positions, swarm.positions,
            links.links, rc, t_mesh.adjacency,
        )
        result, _ = search.run(depth=2, initial_samples=4)
        assert search.flood_rounds == result.evaluations == 4 + 2 * 2 + 1


class TestDistributedPlanner:
    def test_matches_centralized_plan(self, setup):
        swarm, m2 = setup
        central = MarchingPlanner(FAST).plan(swarm, m2)
        distributed = DistributedMarchingPlanner(FAST).plan(swarm, m2)
        assert distributed.method == "ours (a, distributed)"
        # Same triangulation class, same search space: the march targets
        # agree closely (boundary parameterizations differ slightly:
        # hop-uniform protocol vs chord - both legal per the paper).
        gap = np.hypot(*(central.march_targets - distributed.march_targets).T)
        assert np.median(gap) < 0.25 * swarm.radio.comm_range

    def test_distributed_plan_guarantees(self, setup):
        swarm, m2 = setup
        result = DistributedMarchingPlanner(FAST).plan(swarm, m2)
        rep = connectivity_report(
            result.trajectory, swarm.radio.comm_range, result.boundary_anchors
        )
        assert rep.connected
        assert stable_link_ratio(result.links, result.trajectory) > 0.6
        assert m2.contains(result.final_positions).all()
        assert result.artifacts["flood_rounds"] == result.rotation_evaluations

    def test_method_b_supported(self, setup):
        swarm, m2 = setup
        cfg = MarchingConfig(
            method="b", foi_target_points=220,
            lloyd=LloydConfig(grid_target=800, max_iterations=25),
        )
        result = DistributedMarchingPlanner(cfg).plan(swarm, m2)
        assert result.method == "ours (b, distributed)"
        assert connectivity_report(
            result.trajectory, swarm.radio.comm_range, result.boundary_anchors
        ).connected


def test_distributed_planner_is_the_one_pipeline():
    """The distributed planner swaps stages; it keeps no pipeline copy."""
    assert "plan" not in vars(DistributedMarchingPlanner)
    assert DistributedMarchingPlanner.plan is MarchingPlanner.plan
    callers = sorted(
        path.name
        for path in MARCHING_SRC.rglob("*.py")
        if re.search(
            r"(?<!def )\b(run_lloyd|detoured_transition|stepwise_trajectory)\(",
            path.read_text(),
        )
    )
    assert callers == ["planner.py"]
