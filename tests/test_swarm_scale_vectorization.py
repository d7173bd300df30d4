"""Swarm-scale vectorization: bitwise equivalence and scaling guards.

Every vectorised fast path introduced for large swarms - the
KD-tree unit-disk graph, CSR adjacency, factorization-reusing
harmonic solves, batch point location, batch induced-map transfer,
vectorised trajectory sampling, the KD-tree nearest-site assignment and
the CSR connectivity-safe Lloyd step - must produce *bitwise-identical*
results to the scalar/brute-force oracles it replaced; these tests pin
that contract.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.coverage.lloyd as lloyd_module
from repro.coverage import (
    LloydConfig,
    coverage_fraction,
    hole_proximity_density,
    nearest_robot_distances,
    run_lloyd,
)
from repro.coverage.lloyd import _connectivity_safe_step
from repro.errors import GeometryError, PlanningError
from repro.geometry import TriangleLocator, barycentric_coords_paired
from repro.geometry.vec import (
    _nearest_index_dense,
    as_points,
    nearest_index,
    polyline_length,
)
from repro.harmonic import (
    clear_factorization_cache,
    compute_disk_map,
    solve_linear,
)
from repro.harmonic.boundary import boundary_parameterization, circle_positions
from repro.harmonic.transfer import InducedMap
from repro.mesh.delaunay import delaunay_mesh
from repro.network import UnitDiskGraph, udg_edges
from repro.obs import Metrics, activate_metrics
from repro.robots.motion import SwarmTrajectory
from tests import geometry_oracle, network_oracle
from tests import trajectory_oracle as oracle

SRC = Path(__file__).resolve().parents[1] / "src"

positions_strategy = st.lists(
    st.tuples(
        st.floats(-1e4, 1e4, allow_nan=False, width=32),
        st.floats(-1e4, 1e4, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=60,
)


class TestSpatialHashUdg:
    @given(pts=positions_strategy, r=st.floats(0.1, 500.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce(self, pts, r):
        arr = np.array(pts, dtype=float).reshape(-1, 2)
        assert np.array_equal(udg_edges(arr, r), network_oracle.udg_edges(arr, r))

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_dense_random(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** float(rng.integers(-3, 4))
        pts = rng.uniform(-scale, scale, size=(n, 2))
        r = float(rng.uniform(0.05, 1.5)) * scale
        assert np.array_equal(udg_edges(pts, r), network_oracle.udg_edges(pts, r))

    def test_points_exactly_at_comm_range(self):
        # The boundary predicate is inclusive; pairs at exactly r must
        # appear in both implementations even when the cell grid puts
        # them in non-adjacent-looking positions.
        r = 7.0
        pts = np.array([
            [0.0, 0.0], [r, 0.0], [0.0, r], [r, r],
            [2 * r, 0.0], [0.0, 2 * r],
        ])
        fast = udg_edges(pts, r)
        slow = network_oracle.udg_edges(pts, r)
        assert np.array_equal(fast, slow)
        assert [0, 1] in fast.tolist()

    def test_empty_swarm(self):
        empty = np.zeros((0, 2))
        assert udg_edges(empty, 1.0).shape == (0, 2)
        assert np.array_equal(udg_edges(empty, 1.0), network_oracle.udg_edges(empty, 1.0))

    def test_all_coincident(self):
        pts = np.ones((25, 2)) * 3.5
        fast = udg_edges(pts, 1.0)
        assert np.array_equal(fast, network_oracle.udg_edges(pts, 1.0))
        assert len(fast) == 25 * 24 // 2

    def test_huge_coordinate_spread(self):
        # Coordinates far apart at a small range: one pair in range.
        pts = np.array([[0.0, 0.0], [1e18, 1e18], [0.5, 0.5], [1.0, 0.0]])
        assert np.array_equal(udg_edges(pts, 1.2), network_oracle.udg_edges(pts, 1.2))

    def test_range_whose_square_underflows(self):
        # r**2 is 0, so the squared-distance shortcut cannot decide any
        # pair; hypot must.
        r = 1e-201
        pts = np.array([[0.0, 0.0], [1.5 * r, 0.0], [0.0, 0.5 * r], [0.0, 3.0 * r]])
        fast = udg_edges(pts, r)
        assert np.array_equal(fast, network_oracle.udg_edges(pts, r))
        assert fast.tolist() == [[0, 2]]

    def test_10k_fast_and_identical_at_1k(self):
        # Uniform over a square sized for a mean degree near 10.
        side = np.sqrt(1_000 * np.pi * 80.0**2 / 10.0)
        pts = np.random.default_rng(3).uniform(0.0, side, size=(1_000, 2))
        assert np.array_equal(
            udg_edges(pts, 80.0), network_oracle.udg_edges(pts, 80.0)
        )


class TestCsrAdjacency:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_adjacency_matches_edge_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, size=(n, 2))
        g = UnitDiskGraph(pts, 2.0)
        oracle = [[] for _ in range(n)]
        for a, b in udg_edges(pts, 2.0):
            oracle[a].append(int(b))
            oracle[b].append(int(a))
        oracle = [sorted(row) for row in oracle]
        adj = g.adjacency
        assert isinstance(adj, list)
        assert all(isinstance(row, list) for row in adj)
        assert adj == oracle
        assert [g.degree(v) for v in range(n)] == [len(r) for r in oracle]

    def test_components_cover_and_sorted(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([
            rng.uniform(0, 3, size=(30, 2)),
            rng.uniform(100, 103, size=(20, 2)),
        ])
        g = UnitDiskGraph(pts, 1.5)
        comps = g.components
        assert sorted(v for c in comps for v in c) == list(range(50))
        assert all(c == sorted(c) for c in comps)
        # Largest first.
        assert all(
            len(comps[i]) >= len(comps[i + 1]) for i in range(len(comps) - 1)
        )
        anchor = comps[0][0]
        mask = g.nodes_connected_to([anchor])
        assert np.flatnonzero(mask).tolist() == sorted(comps[0])


class TestFactorizationReuse:
    @pytest.fixture
    def mesh(self):
        rng = np.random.default_rng(9)
        return delaunay_mesh(rng.uniform(0, 100, size=(120, 2)))

    def test_warm_solve_byte_identical_to_cold_spsolve(self, mesh):
        loop, angles = boundary_parameterization(mesh)
        bpos = circle_positions(angles)
        clear_factorization_cache()
        oracle = solve_linear(mesh, loop, bpos, reuse_factorization=False)
        cold = solve_linear(mesh, loop, bpos)
        warm = solve_linear(mesh, loop, bpos)
        clear_factorization_cache()
        assert cold.tobytes() == oracle.tobytes()
        assert warm.tobytes() == oracle.tobytes()

    def test_cache_hit_and_miss_counters(self, mesh):
        loop, angles = boundary_parameterization(mesh)
        bpos = circle_positions(angles)
        clear_factorization_cache()
        m = Metrics()
        with activate_metrics(m):
            solve_linear(mesh, loop, bpos)
            solve_linear(mesh, loop, bpos)
        clear_factorization_cache()
        snap = m.snapshot()
        assert snap["cache.harmonic_factorization.misses"]["value"] == 1
        assert snap["cache.harmonic_factorization.hits"]["value"] == 1

    def test_disk_map_unchanged_by_reuse(self, square_foi_mesh):
        clear_factorization_cache()
        first = compute_disk_map(square_foi_mesh.mesh)
        second = compute_disk_map(square_foi_mesh.mesh)
        clear_factorization_cache()
        assert np.array_equal(first.disk_positions, second.disk_positions)


class TestBatchPointLocation:
    @pytest.fixture(scope="class")
    def locator(self):
        rng = np.random.default_rng(17)
        mesh = delaunay_mesh(rng.uniform(-5, 5, size=(80, 2)))
        return TriangleLocator(mesh.vertices, mesh.triangles)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_locate_many_matches_scalar(self, locator, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-7, 7, size=(int(rng.integers(1, 80)), 2))
        tri, bary = locator.locate_many(q)
        for i, p in enumerate(q):
            hit = geometry_oracle.locate(locator.points, locator.triangles, p)
            if hit is None:
                assert tri[i] == -1
                assert np.all(np.isnan(bary[i]))
            else:
                assert tri[i] == hit[0]
                assert np.array_equal(bary[i], hit[1])

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_locate_nearest_many_matches_scalar(self, locator, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-9, 9, size=(int(rng.integers(1, 80)), 2))
        tri, bary = locator.locate_nearest_many(q)
        for i, p in enumerate(q):
            t, b = geometry_oracle.locate_nearest(locator.points, locator.triangles, p)
            assert tri[i] == t
            assert np.array_equal(bary[i], b)

    def test_vertices_and_centroids_hit(self, locator):
        pts = np.vstack([locator.points[:12], locator._centroids[:12]])
        tri, bary = locator.locate_many(pts)
        assert np.all(tri >= 0)
        for i, p in enumerate(pts):
            hit = geometry_oracle.locate(locator.points, locator.triangles, p)
            assert hit is not None and tri[i] == hit[0]
            assert np.array_equal(bary[i], hit[1])

    def test_empty_batch(self, locator):
        tri, bary = locator.locate_many(np.zeros((0, 2)))
        assert tri.shape == (0,) and bary.shape == (0, 3)
        tri, bary = locator.locate_nearest_many(np.zeros((0, 2)))
        assert tri.shape == (0,) and bary.shape == (0, 3)

    def test_paired_barycentric_matches_many(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, size=(40, 2))
        b = a + rng.uniform(0.1, 1, size=(40, 2))
        c = a + np.array([[-1.0, 1.0]]) * rng.uniform(0.1, 1, size=(40, 2))
        p = rng.uniform(-1, 1, size=(40, 2))
        paired = barycentric_coords_paired(p, a, b, c)
        for k in range(40):
            row = geometry_oracle.barycentric_many(
                p[k], a[k : k + 1], b[k : k + 1], c[k : k + 1]
            )[0]
            assert np.array_equal(paired[k], row)


class TestBatchInducedMap:
    def queries(self, dm, rng):
        """Random disk points, points outside the disk, mesh vertices
        (virtual ones included) and points on mesh edges."""
        v, t = dm.disk_positions, dm.filled.mesh.triangles
        w = rng.uniform(0, 1, (len(t), 1))
        return np.vstack([
            rng.uniform(-1.1, 1.1, size=(60, 2)),
            rng.uniform(-3.0, 3.0, size=(20, 2)),
            v,
            w * v[t[:, 0]] + (1 - w) * v[t[:, 1]],
        ])

    def test_matches_scalar_map_point(self, holed_foi_mesh, rng):
        dm = compute_disk_map(holed_foi_mesh.mesh)
        assert len(dm.filled.virtual_vertices)
        pts = self.queries(dm, rng)
        batch = InducedMap(dm).map_points(pts)
        scalar = np.array([geometry_oracle.map_point(dm, p) for p in pts])
        assert np.array_equal(batch, scalar)

    def test_rotation_matches_scalar(self, holed_foi_mesh, rng):
        from repro.geometry.vec import rotate

        dm = compute_disk_map(holed_foi_mesh.mesh)
        pts = rng.uniform(-0.9, 0.9, size=(30, 2))
        theta = 1.234
        batch = InducedMap(dm).map_points(pts, rotation=theta)
        scalar = np.array(
            [geometry_oracle.map_point(dm, p) for p in rotate(pts, theta)]
        )
        assert np.array_equal(batch, scalar)

    def test_empty_batch(self, square_foi_mesh):
        dm = compute_disk_map(square_foi_mesh.mesh)
        assert InducedMap(dm).map_points(np.zeros((0, 2))).shape == (0, 2)


class TestVectorizedTrajectorySampling:
    """Trajectory queries equal the per-robot oracle in ``trajectory_oracle``."""

    @pytest.fixture
    def mixed_trajectory(self):
        rng = np.random.default_rng(23)
        T = 10.0
        paths = [(rng.uniform(0, 5, (1, 2)), [0.0])]
        for _ in range(6):
            paths.append((rng.uniform(0, 5, (2, 2)), [0.0, T]))
        t_jump = 4.0
        paths.append((rng.uniform(0, 5, (2, 2)), [t_jump, t_jump]))
        times = np.sort(rng.uniform(0, T, 4))
        paths.append((rng.uniform(0, 5, (4, 2)), times))
        return SwarmTrajectory.from_paths(paths, 0.0, T)

    def test_positions_over_matches_per_path(self, mixed_trajectory):
        traj = mixed_trajectory
        ts = np.concatenate([np.linspace(-1, 11, 25), traj.times])
        for side, rule in (("right", oracle.right), ("left", oracle.left)):
            got = traj.positions_over(ts, side=side)
            want = np.stack(
                [rule(xy, times, ts) for xy, times in oracle.paths(traj)], axis=1
            )
            assert np.array_equal(got, want)

    def test_positions_at_matches_per_path(self, mixed_trajectory):
        traj = mixed_trajectory
        for t in [-1.0, 0.0, 3.3, 4.0, 10.0, 12.0]:
            want = np.array(
                [oracle.blend(xy, times, t) for xy, times in oracle.paths(traj)]
            )
            assert np.array_equal(traj.positions_at(t), want)

    def test_critical_and_discontinuity_times(self, mixed_trajectory):
        traj = mixed_trajectory
        ts = {traj.t_start, traj.t_end}
        ts.update(float(t) for t in traj.times)
        arr = np.array(sorted(ts))
        want = arr[(arr >= traj.t_start - 1e-9) & (arr <= traj.t_end + 1e-9)]
        assert np.array_equal(traj.critical_times(), want)

        ds = sorted(
            {float(t) for xy, times in oracle.paths(traj)
             for t in oracle.discontinuities(xy, times)}
        )
        assert traj.discontinuity_times().tolist() == ds

    def test_two_waypoint_jump_detected(self):
        # A two-waypoint path whose time stamps coincide is a jump.
        traj = SwarmTrajectory(
            [0, 2, 3], [2.0, 2.0, 0.0], [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]],
            0.0, 10.0,
        )
        assert traj.discontinuity_times().tolist() == [2.0]

    def test_path_lengths_match(self, mixed_trajectory):
        traj = mixed_trajectory
        want = np.array([polyline_length(xy) for xy, _ in oracle.paths(traj)])
        assert np.array_equal(traj.path_lengths(), want)

    def test_bad_side_rejected(self, mixed_trajectory):
        with pytest.raises(PlanningError, match="side must be"):
            mixed_trajectory.positions_over([0.0], side="up")


# Coordinates that produce exact ties (small integers and halves), wide
# spreads and near-coincident points.
_coord = st.one_of(
    st.integers(-4, 4).map(float),
    st.integers(-8, 8).map(lambda k: k / 2.0),
    st.floats(-1e9, 1e9, allow_nan=False, width=32),
    st.floats(-1e-6, 1e-6, allow_nan=False),
)


@st.composite
def _nearest_inputs(draw):
    sites = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=40))
    points = draw(st.lists(st.tuples(_coord, _coord), max_size=60))
    # Duplicate sites, and points exactly on sites.
    dup = draw(st.lists(st.integers(0, len(sites) - 1), max_size=5))
    on = draw(st.lists(st.integers(0, len(sites) - 1), max_size=10))
    sites = sites + [sites[i] for i in dup]
    points = points + [sites[i] for i in on]
    return as_points(points), as_points(sites)


class TestNearestIndex:
    @given(inputs=_nearest_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, inputs):
        points, sites = inputs
        assert np.array_equal(
            nearest_index(points, sites), _nearest_index_dense(points, sites)
        )

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_oracle_random(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** float(rng.integers(-4, 7))
        sites = rng.uniform(-scale, scale, size=(n, 2))
        points = rng.uniform(-2 * scale, 2 * scale, size=(500, 2))
        assert np.array_equal(
            nearest_index(points, sites), _nearest_index_dense(points, sites)
        )

    def test_lattice_ties_pick_lowest_index(self):
        # Half-integer points are equidistant from 2 or 4 integer sites;
        # the shuffled site order makes "lowest index" non-trivial.
        g = np.arange(-5.0, 6.0)
        sites = np.array([(x, y) for x in g for y in g])
        sites = sites[np.random.default_rng(1).permutation(len(sites))]
        h = np.arange(-5.5, 6.0, 0.5)
        points = np.array([(x, y) for x in h for y in h])
        fast = nearest_index(points, sites)
        assert np.array_equal(fast, _nearest_index_dense(points, sites))

    def test_coincident_sites_and_single_site(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, -2.0]])
        assert nearest_index(points, np.ones((5, 2))).tolist() == [0, 0, 0]
        assert nearest_index(points, np.array([[7.0, 7.0]])).tolist() == [0, 0, 0]

    def test_symmetric_in_roles(self):
        # Lloyd's fallbacks query robots against the grid: the oracle's
        # (g - s)**2 equals the kernel's (s - g)**2 bitwise.
        rng = np.random.default_rng(4)
        grid = rng.uniform(0, 10, size=(400, 2))
        robots = rng.uniform(-5, 15, size=(30, 2))
        for i, r in enumerate(robots):
            dg = grid - r
            want = int(np.argmin(dg[:, 0] ** 2 + dg[:, 1] ** 2))
            assert nearest_index(robots, grid)[i] == want

    def test_coverage_metrics_match_dense_min(self, holed_foi):
        robots = holed_foi.sample_free_points(50, np.random.default_rng(2))
        grid = holed_foi.grid_points(float(np.sqrt(holed_foi.area / 4000)))
        diff = grid[:, None, :] - robots[None, :, :]
        d2 = (diff[..., 0] ** 2 + diff[..., 1] ** 2).min(axis=1)
        assert np.array_equal(nearest_robot_distances(holed_foi, robots), np.sqrt(d2))
        assert coverage_fraction(holed_foi, robots, 9.0) == float((d2 <= 81.0).mean())

    def test_empty(self):
        assert nearest_index(np.zeros((0, 2)), np.ones((3, 2))).shape == (0,)
        with pytest.raises(GeometryError):
            nearest_index(np.ones((3, 2)), np.zeros((0, 2)))


def _safe_step_loop(sites, targets, comm_range, max_halvings):
    """The per-robot connectivity-safe step the CSR reduction replaced (oracle)."""
    graph = UnitDiskGraph(sites, comm_range)
    was_connected = graph.is_connected()
    n = len(sites)
    alphas = np.ones(n)
    moves = targets - sites
    for _ in range(max_halvings + 1):
        proposal = sites + alphas[:, None] * moves
        unsafe = []
        for i in range(n):
            nbrs = graph.neighbors(i)
            if not nbrs:
                continue
            d = np.hypot(*(proposal[nbrs] - proposal[i]).T)
            if not (d <= comm_range).any():
                unsafe.append(i)
        if not unsafe:
            break
        alphas[unsafe] /= 2.0
    proposal = sites + alphas[:, None] * moves
    if not was_connected or UnitDiskGraph(proposal, comm_range).is_connected():
        return proposal
    scale = 1.0
    for _ in range(max_halvings + 1):
        scale /= 2.0
        trial = sites + scale * alphas[:, None] * moves
        if UnitDiskGraph(trial, comm_range).is_connected():
            return trial
    return sites.copy()


class TestVectorizedSafeStep:
    @staticmethod
    def _check(sites, targets, r, halvings=6):
        fast, graph = _connectivity_safe_step(sites, targets, r, halvings)
        assert np.array_equal(fast, _safe_step_loop(sites, targets, r, halvings))
        if graph is not None:
            assert graph.positions is fast
            assert np.array_equal(graph.edges, UnitDiskGraph(fast, r).edges)
        # A graph handed back in gives the same step.
        again, _ = _connectivity_safe_step(
            sites, targets, r, halvings, UnitDiskGraph(sites, r)
        )
        assert np.array_equal(again, fast)
        return fast, graph

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 80),
           reach=st.floats(0.1, 5.0), halvings=st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle(self, seed, n, reach, halvings):
        rng = np.random.default_rng(seed)
        sites = rng.uniform(0, 10, size=(n, 2))
        # A few far-off robots are isolated from the start.
        sites[: n // 10] += 1e3
        targets = sites + rng.normal(0.0, reach, size=(n, 2))
        self._check(sites, targets, 1.5, halvings)

    def test_cornered_pair_needs_every_halving(self):
        # Two linked robots whose targets fly apart: no halving keeps
        # the link, so both end at the last step factor 2**-7.
        sites = np.array([[0.0, 0.0], [0.9, 0.0], [50.0, 50.0]])
        targets = np.array([[-200.0, 0.0], [200.9, 0.0], [50.0, 51.0]])
        fast, graph = self._check(sites, targets, 1.0)
        assert fast[0, 0] == -200.0 / 2**7
        assert graph is None  # disconnected start: no global check ran

    def test_backstop_and_reuse(self):
        # Two clusters joined by one bridge link: every robot keeps a
        # neighbour, but the bridge breaks, so the backstop trips.
        left = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        sites = np.vstack([left, left + [1.4, 0.0]])
        targets = sites + np.repeat([[-3.0, 0.0], [3.0, 0.0]], 3, axis=0)
        fast, graph = self._check(sites, targets, 1.0)
        assert graph is None
        assert UnitDiskGraph(fast, 1.0).is_connected()
        # A gentle step keeps the network and hands its graph on.
        _, graph = self._check(sites, sites + 0.01, 1.0)
        assert graph is not None


class TestLloydBitwise:
    def test_run_lloyd_matches_dense_oracle_run(self, holed_foi, monkeypatch):
        rng = np.random.default_rng(7)
        ring = np.radians(np.arange(0, 360, 45))
        start = np.vstack([
            holed_foi.sample_free_points(30, rng) * 0.5,
            # A robot at the hole's centre, ringed by eight: its region
            # wraps the hole, so its centroid falls inside (hole rule).
            [[50.0, 50.0]],
            np.column_stack([50 + 28 * np.cos(ring), 50 + 28 * np.sin(ring)]),
            # Outside the square, the second one behind the first: an
            # empty region.
            [[103.0, 20.0], [104.0, 20.0]],
        ])
        density = hole_proximity_density(holed_foi, sigma=5.0, peak=20.0)
        snapped = []

        def spy(points, sites):
            if len(sites) > len(start):  # robots queried against the grid
                snapped.append(len(points))
            return nearest_index(points, sites)

        cfg = LloydConfig(grid_target=1500, max_iterations=25)
        monkeypatch.setattr(lloyd_module, "nearest_index", spy)
        fast = run_lloyd(start, holed_foi, 45.0, density, cfg)
        assert snapped[:2] == [1, 1]  # empty region, then hole rule

        monkeypatch.setattr(
            lloyd_module, "nearest_index",
            lambda p, s: _nearest_index_dense(as_points(p), as_points(s)),
        )
        monkeypatch.setattr(
            lloyd_module, "_connectivity_safe_step",
            lambda s, t, r, h, g: (_safe_step_loop(s, t, r, h), None),
        )
        slow = run_lloyd(start, holed_foi, 45.0, density, cfg)
        assert fast.iterations == slow.iterations
        assert fast.total_movement == slow.total_movement
        assert np.array_equal(fast.positions, slow.positions)
        assert len(fast.snapshots) == len(slow.snapshots)
        for a, b in zip(fast.snapshots, slow.snapshots):
            assert np.array_equal(a, b)


_LLOYD_10K = """
import resource
from repro.coverage.lloyd import LloydConfig, run_lloyd
from repro.experiments.zoo.families import build_foi

n = 10_000
unit, _ = build_foi("rough", 0, validate=False)
foi = unit.scaled_to_area(n * 48.0**2)
start = foi.grid_points(48.0)[:n]
assert len(start) == n
run_lloyd(start, foi, comm_range=80.0, config=LloydConfig(grid_target=30_000))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_10k_robot_lloyd_memory_bounded():
    # A fresh process, so ru_maxrss is this run's peak alone.  The dense
    # grid x robots assignment needed ~13 GB per iteration here.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _LLOYD_10K],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    peak_mb = int(result.stdout.split()[-1]) / 1024.0  # ru_maxrss is KiB on Linux
    assert peak_mb < 500.0


def test_one_spatial_query_layer():
    """``geometry/vec.py`` is the only module that builds a KD-tree; the
    unit-disk cell grid, the single-point locator twins, the dense
    unit-disk edge builder and the scalar detour twins stay gone."""
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in (SRC / "repro").rglob("*.py")
    }
    patterns = [
        r"cKDTree",
        r"_candidate_pairs",
        r"def locate\(",
        r"def locate_nearest\(",
        r"def map_point\(",
        r"barycentric_coords_many",
        r"_udg_edges_bruteforce",
        r"_scalar\(",
    ]
    found = {
        pattern: sorted(name for name, text in sources.items() if re.search(pattern, text))
        for pattern in patterns
    }
    assert found == {
        **{pattern: [] for pattern in patterns},
        r"cKDTree": ["geometry/vec.py"],
    }


def test_one_motion_formula():
    """Positions come from one formula, ``SwarmTrajectory._blend``: the
    ``np.interp`` slope form and its per-segment slopes stay out of
    ``src/repro``."""
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in (SRC / "repro").rglob("*.py")
    }
    patterns = [r"_slopes", r"_slide", r"np\.interp", r"\b_position_at\b"]
    found = {
        pattern: sorted(name for name, text in sources.items() if re.search(pattern, text))
        for pattern in patterns
    }
    assert found == {pattern: [] for pattern in patterns}


def test_one_mesh_topology_path():
    """Mesh topology reads the ``TriMesh`` side table only: the
    dict-of-lists incidence and per-side ``setdefault`` loops stay out
    of ``repro/mesh`` and the incidence names out of the package."""
    sources = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in (SRC / "repro").rglob("*.py")
    }
    mesh = [name for name in sources if name.startswith("mesh/")]

    def files(pattern, names):
        return sorted(name for name in names if re.search(pattern, sources[name]))

    assert files(r"edge_triangles|vertex_triangles", sources) == []
    assert files(r"setdefault\(", mesh) == []
