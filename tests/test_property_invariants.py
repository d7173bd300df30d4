"""Cross-module property-based tests of core invariants."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.experiments.zoo import (
    FAMILIES,
    ZooConfig,
    build_foi,
    run_zoo_case,
    validate_foi,
)
from repro.experiments.zoo.strategies import st_zoo_case, st_zoo_foi
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.geometry import Polygon, convex_hull, signed_area
from repro.mesh import delaunay_mesh
from repro.metrics import stable_link_ratio
from repro.network import LinkTable, links_alive_throughout
from repro.robots import SwarmTrajectory, straight_transition
from tests.links_oracle import stable_link_ratio_over, stable_mask_over

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


class TestDelaunayInvariants:
    @given(st.lists(point, min_size=5, max_size=40, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_euler_characteristic_is_one(self, pts):
        # Quantise to a coarse grid so hypothesis cannot produce
        # near-duplicate points whose sliver triangles get filtered.
        arr = np.unique(np.round(np.asarray(pts, dtype=float) * 2) / 2, axis=0)
        assume(len(arr) >= 5)
        hull = convex_hull(arr)
        assume(len(hull) >= 3 and abs(signed_area(hull)) > 1e-3)
        mesh = delaunay_mesh(arr)
        # Restrict to general-position draws: every input vertex used
        # (degenerate collinear runs on the hull drop slivers and leave
        # orphan vertices, which is documented filtering behaviour).
        assume(len(np.unique(mesh.triangles)) == len(arr))
        from repro.errors import MeshError

        try:
            loops = mesh.boundary_loops
        except MeshError:
            assume(False)  # pinched: also a degenerate-collinearity artefact
        # A triangulation of a convex region is a topological disk.
        assert mesh.euler_characteristic == 1
        assert mesh.is_connected()
        assert len(loops) == 1

    @given(st.lists(point, min_size=5, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    # Hull corner (0, 0) whose only triangle is 6e-8 wide: below TriMesh's
    # degeneracy bound, so the sliver filter must drop it.
    @example([(0.0, 0.0), (0.0, 1.0), (0.0, 1.192092896e-07), (1.0, 0.0),
              (5.960464477539063e-08, 0.0)])
    def test_boundary_is_convex_hull(self, pts):
        # Snap to a 1e-3 grid: every non-collinear triangle then has an
        # area far above the sliver filter's bound (documented filtering
        # domain, as in the Euler test above).
        arr = np.unique(np.round(np.asarray(pts, dtype=float) * 1e3) / 1e3, axis=0)
        assume(len(arr) >= 3)
        hull = convex_hull(arr)
        assume(len(hull) >= 3 and abs(signed_area(hull)) > 1e-3)
        mesh = delaunay_mesh(arr)
        boundary_pts = mesh.vertices[mesh.boundary_vertices]
        hull_set = {tuple(np.round(p, 9)) for p in hull}
        # Every hull corner is a boundary vertex of the triangulation.
        boundary_set = {tuple(np.round(p, 9)) for p in boundary_pts}
        assert hull_set <= boundary_set


def _one_robot(wps, t_start, t_end):
    return SwarmTrajectory.constant_speed([0, len(wps)], wps, t_start, t_end)


class TestTimedPathInvariants:
    @given(st.lists(point, min_size=2, max_size=8))
    @settings(max_examples=100)
    def test_positions_within_waypoint_bbox(self, wps):
        path = _one_robot(np.asarray(wps, float), 0.0, 1.0)
        arr = np.asarray(wps, dtype=float)
        lo = arr.min(axis=0) - 1e-9
        hi = arr.max(axis=0) + 1e-9
        for t in np.linspace(-0.2, 1.2, 13):
            for p in (path.positions_at(t)[0], path.positions_over([t])[0, 0]):
                assert (p >= lo).all() and (p <= hi).all()

    @given(st.lists(point, min_size=2, max_size=5), st.lists(point, min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_then_length_additive(self, first, second):
        a = _one_robot(np.asarray(first, float), 0.0, 0.5)
        tail = np.vstack([a.end_positions, np.asarray(second, float)])
        b = _one_robot(tail, 0.5, 1.0)
        joined = a.then(b)
        assert joined.total_distance() == pytest.approx(
            a.total_distance() + b.total_distance(), abs=1e-6
        )


class TestLinkTableInvariants:
    @given(
        st.integers(3, 10),
        st.floats(0.5, 4.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_stable_mask_monotone_in_snapshots(self, n, rc, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 6, (n, 2))
        table = LinkTable.from_positions(pos, rc)
        snaps = [pos + rng.normal(0, 0.5, (n, 2)) for _ in range(4)]
        shorter = stable_mask_over(table, [pos] + snaps[:2])
        longer = stable_mask_over(table, [pos] + snaps)
        # More snapshots can only break more links, never revive them.
        assert not np.any(longer & ~shorter)
        # Nor can flying on past them.
        legs = [straight_transition(p, q, float(k), float(k + 1))
                for k, (p, q) in enumerate(zip([pos] + snaps, snaps))]
        flown = [legs[0]]
        for leg in legs[1:]:
            flown.append(flown[-1].then(leg))
        shorter = links_alive_throughout(table, flown[1])
        longer = links_alive_throughout(table, flown[-1])
        assert not np.any(longer & ~shorter)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_ratio_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 5, (n, 2))
        table = LinkTable.from_positions(pos, 2.0)
        traj = straight_transition(pos, pos + rng.normal(0, 1, (n, 2)))
        ratio = stable_link_ratio_over(table, traj.positions_over(traj.sample_times(8)))
        assert 0.0 <= ratio <= 1.0
        # Straight legs: the distance peaks at the ends, so L is exact.
        assert stable_link_ratio(table, traj) == ratio


class TestFoiInvariants:
    FOI = FieldOfInterest(
        Polygon([(0, 0), (20, 0), (20, 20), (0, 20)]),
        [ellipse_polygon(3, 3, samples=16, center=(10, 10))],
    )

    @given(st.floats(-5, 25), st.floats(-5, 25))
    @settings(max_examples=150)
    def test_project_inside_lands_in_free_region(self, x, y):
        p = self.FOI.project_inside([x, y])
        assert self.FOI.contains(p)

    @given(st.floats(0.1, 19.9), st.floats(0.1, 19.9))
    @settings(max_examples=100)
    def test_containment_consistent_with_distances(self, x, y):
        inside = bool(self.FOI.contains([x, y]))
        hole_d = self.FOI.hole_distance([x, y])
        in_hole = self.FOI.hole_containing([x, y]) is not None
        if in_hole:
            assert not inside
        if inside:
            assert not in_hole
            assert hole_d >= 0


class TestZooGeometryInvariants:
    """Every zoo draw must be a valid, replayable marching region."""

    @given(foi=st_zoo_foi(max_seed=500))
    @settings(max_examples=10, deadline=None)
    def test_generated_foi_structurally_valid(self, foi):
        report = validate_foi(foi)
        assert report.ok, report.failures

    @given(st.sampled_from(FAMILIES), st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_build_is_deterministic_in_family_and_seed(self, family, seed):
        a, pa = build_foi(family, seed)
        b, pb = build_foi(family, seed)
        assert pa == pb
        assert np.array_equal(a.outer.vertices, b.outer.vertices)
        assert len(a.holes) == len(b.holes)


class TestZooPipelineInvariants:
    """Whole-pipeline paper claims over procedurally generated scenarios.

    Tight example budget: each example runs the full plan->verify
    pipeline.  The heavy sweep lives in ``python -m repro zoo``; this
    keeps a hypothesis-shrunk wedge of it in the tier-1 suite.
    """

    CONFIG = ZooConfig(
        robot_count=25,
        foi_target_points=120,
        grid_target=400,
        methods=("ours (a)",),
        shrink=False,
    )

    @given(case=st_zoo_case(max_seed=60))
    @settings(max_examples=3, deadline=None)
    def test_full_pipeline_invariants(self, case):
        doc = run_zoo_case(case, self.CONFIG)
        assert doc["outcome"] == "pass", doc
        for method_doc in doc["methods"].values():
            inv = method_doc["invariants"]
            # C = 1 at every sampled instant and every jump left-limit.
            assert inv["connectivity"]["ok"]
            assert inv["connectivity"]["left_limit_isolated"] == 0
            # Lemma 1: L in [0, 1], D at or above the matching floor.
            assert inv["lemma1"]["ok"]
            # Definition 2 re-verified from the wire bytes; canonical
            # document bytes stable under JSON round-trip.
            assert inv["definition2"]["ok"]
            assert inv["document"]["ok"]
