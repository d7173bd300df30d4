"""Equivalence tests: distributed rotation search and distributed planner."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.distributed import DistributedRotationSearch
from repro.errors import PlanningError
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.harmonic import InducedMap, compute_disk_map, hierarchical_angle_search
from repro.marching import (
    DistributedMarchingPlanner,
    MarchingConfig,
    MarchingPlanner,
    repair_targets,
)
from repro.mesh import triangulate_foi
from repro.metrics import connectivity_report, stable_link_ratio
from repro.network import LinkTable, UnitDiskGraph, extract_triangulation
from repro.network.links import links_alive
from repro.obs import Metrics, activate_metrics
from repro.robots import RadioSpec, Swarm

REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MARCHING_SRC = REPRO_SRC / "marching"

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

    def test_counts_each_objective_evaluation_once(self, setup):
        swarm, rc, links, t_mesh, dm_t, induced = self._pieces(setup)
        search = DistributedRotationSearch(
            induced, dm_t.robot_disk_positions, swarm.positions,
            links.links, rc, t_mesh.adjacency,
        )
        with activate_metrics(Metrics()) as metrics:
            result, _ = search.run(depth=3, initial_samples=4)
        counted = metrics.counter("rotation.objective_evaluations").value
        assert counted == result.evaluations == 4 + 2 * 3 + 1


def _chain(n):
    return np.column_stack([np.arange(n, dtype=float), np.zeros(n)])


def _torn_chain(n, anchors, lifts, shift=0.0):
    """A unit-spaced chain, shifted, whose listed robots lift off by ``dy``."""
    p = _chain(n)
    q = p + [shift, 0.0]
    for robots, dy in lifts:
        q[list(robots)] += [0.0, dy]
    return p, q, 1.5, anchors


def _torn_lattice(seed):
    """A hexagonal 5x6 lattice marched rigidly with a few seeded tears."""
    rng = np.random.default_rng(seed)
    pts = [
        (c + 0.5 * (r % 2), r * np.sqrt(3) / 2) for r in range(5) for c in range(6)
    ]
    p = np.array(pts)
    rc = 1.1
    graph = UnitDiskGraph(p, rc)
    anchors = [i for i in range(len(p)) if graph.degree(i) < 6]
    q = p + [30.0, 0.0]
    tear = rng.choice(len(p), size=int(rng.integers(1, 7)), replace=False)
    q[tear] += rng.normal(0.0, 10.0, (len(tear), 2))
    return p, q, rc, anchors


REPAIR_CASES = {
    "single_tear": _torn_chain(5, [0, 4], [((2,), 50.0)]),
    "subgroup": _torn_chain(7, [0, 6], [((3, 4), 50.0)]),
    "reference_choice": _torn_chain(7, [0], [((3,), 50.0)]),
    "nested_2_levels": _torn_chain(
        8, [0], [((4, 5), 40.0), ((6, 7), 80.0)], shift=0.3
    ),
    "nested_3_levels": _torn_chain(
        10, [0], [((4, 5), 40.0), ((6, 7), 80.0), ((8, 9), 120.0)]
    ),
    **{f"lattice_seed{s}": _torn_lattice(s) for s in range(12)},
}


@pytest.mark.parametrize("case", sorted(REPAIR_CASES))
def test_distributed_repair_equals_centralized(case):
    """The protocol-flooded repair escorts exactly as ``repair_targets``."""
    p, q, rc, anchors = REPAIR_CASES[case]
    links = UnitDiskGraph(p, rc).edges
    got, got_info = DistributedMarchingPlanner()._repair(
        p, q, links, tuple(anchors), rc
    )
    want, want_info = repair_targets(p, q, rc, anchors, links=links)
    assert got.tobytes() == want.tobytes()
    assert got_info == want_info


def test_repair_cases_exercise_the_escort_branch():
    escorting = [
        case
        for case, (p, q, rc, anchors) in REPAIR_CASES.items()
        if repair_targets(p, q, rc, anchors)[1].escort_count
    ]
    assert len(escorting) >= 10
    assert max(
        repair_targets(p, q, rc, anchors)[1].rounds
        for p, q, rc, anchors in REPAIR_CASES.values()
    ) >= 4


def test_distributed_repair_raises_the_centralized_error():
    p = _chain(4)
    q = p.copy()
    q[3] += [0.0, 50.0]
    links = np.array([[0, 1], [1, 2]])  # robot 3 has no one-range neighbour
    with pytest.raises(PlanningError) as central:
        repair_targets(p, q, 1.5, [0], links=links)
    with pytest.raises(PlanningError) as distributed:
        DistributedMarchingPlanner()._repair(p, q, links, (0,), 1.5)
    assert str(distributed.value) == str(central.value)
    assert "connectivity repair stalled" in str(central.value)


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


def test_one_rotation_search_and_one_escort_loop():
    """The distributed stages reuse the centralized algorithms.

    The interval-halving search (probing both half-brackets) lives only
    in ``harmonic/rotation.py``; the escort step (a subgroup member
    copying its reference's displacement) only in ``marching/repair.py``.
    """
    patterns = {
        "halving": r"\(\s*mid\s*\+\s*hi\s*\)",
        "escort": r"=\s*p\[\w+\]\s*\+\s*disp",
    }
    found = {
        name: sorted(
            str(path.relative_to(REPRO_SRC))
            for path in REPRO_SRC.rglob("*.py")
            if re.search(pattern, path.read_text())
        )
        for name, pattern in patterns.items()
    }
    assert found == {
        "halving": ["harmonic/rotation.py"],
        "escort": ["marching/repair.py"],
    }
