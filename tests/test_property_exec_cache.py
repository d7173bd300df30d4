"""Property tests: locate/interpolate round-trips and cache-key stability.

Two hypothesis suites backing the execution/caching layer:

* the barycentric locate -> interpolate round-trip on random Delaunay
  triangulations, checked against a brute-force containment oracle
  (this is the primitive the cached induced map relies on), and
* disk-map cache-key stability - translated meshes must collide (one
  sweep, one solve) while reordered/scaled meshes must not (a wrong
  hit would silently corrupt an embedding).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import GeometryError
from repro.exec import stable_hash
from repro.geometry import convex_hull, signed_area
from repro.geometry.barycentric import barycentric_coords, from_barycentric
from repro.geometry.pointlocate import TriangleLocator
from repro.harmonic.diskmap import disk_map_cache_key
from repro.mesh import delaunay_mesh
from repro.mesh.trimesh import TriMesh
from tests import geometry_oracle

coord = st.integers(-30, 30)
ipoint = st.tuples(coord, coord)


def _mesh_from(pts) -> TriMesh:
    """A Delaunay mesh over the drawn integer points (or assume-reject)."""
    arr = np.unique(np.asarray(pts, dtype=float), axis=0)
    assume(len(arr) >= 5)
    hull = convex_hull(arr)
    assume(len(hull) >= 3 and abs(signed_area(hull)) > 1e-3)
    mesh = delaunay_mesh(arr)
    assume(len(mesh.triangles) >= 1)
    return mesh


def _contains(p, a, b, c, tol=1e-7) -> bool:
    try:
        return bool(np.all(barycentric_coords(p, a, b, c) >= -tol))
    except GeometryError:  # degenerate sliver: cannot contain anything
        return False


class TestLocateInterpolateRoundTrip:
    @given(
        st.lists(ipoint, min_size=5, max_size=25, unique=True),
        st.integers(0, 10**6),
        st.tuples(st.floats(0.05, 1), st.floats(0.05, 1), st.floats(0.05, 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_brute_force(self, pts, tri_pick, raw_w):
        mesh = _mesh_from(pts)
        tris = mesh.triangles
        a, b, c = mesh.vertices[tris[tri_pick % len(tris)]]
        w = np.asarray(raw_w, dtype=float)
        w = w / w.sum()
        p = from_barycentric(w, a, b, c)

        tri, found = TriangleLocator(mesh.vertices, tris).locate_many(p[None, :], tol=1e-9)
        # p was synthesized inside a triangle, so locate cannot miss.
        assert tri[0] >= 0
        tri_idx, bary = int(tri[0]), found[0]
        hit = geometry_oracle.locate(mesh.vertices, tris, p)
        assert hit is not None and hit[0] == tri_idx
        assert np.array_equal(hit[1], bary)
        oracle = [
            t
            for t in range(len(tris))
            if _contains(p, *mesh.vertices[tris[t]])
        ]
        assert tri_idx in oracle
        # Interpolating the located coordinates reproduces the point.
        va, vb, vc = mesh.vertices[tris[tri_idx]]
        back = from_barycentric(bary, va, vb, vc)
        assert np.allclose(back, p, atol=1e-7)
        assert bary.min() >= -1e-9
        assert bary.sum() == pytest.approx(1.0)

    @given(st.lists(ipoint, min_size=5, max_size=20, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_mesh_vertex_locates_to_corner(self, pts):
        mesh = _mesh_from(pts)
        locator = TriangleLocator(mesh.vertices, mesh.triangles)
        v = int(np.unique(mesh.triangles)[0])
        tri, found = locator.locate_many(mesh.vertices[v][None, :], tol=1e-9)
        assert tri[0] >= 0
        tri_idx, bary = int(tri[0]), found[0]
        # A triangulation vertex can only lie in triangles that have it
        # as a corner, where one barycentric coordinate is 1.
        assert v in mesh.triangles[tri_idx]
        assert bary.max() == pytest.approx(1.0)


class TestCacheKeyStability:
    KEY_ARGS = ("chord", "linear", 1e-7)

    @given(
        st.lists(ipoint, min_size=5, max_size=20, unique=True),
        st.tuples(st.integers(-10**5, 10**5), st.integers(-10**5, 10**5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_collides(self, pts, t):
        mesh = _mesh_from(pts)
        moved = mesh.with_vertices(mesh.vertices + np.asarray(t, dtype=float))
        assert disk_map_cache_key(
            mesh, *self.KEY_ARGS
        ) == disk_map_cache_key(moved, *self.KEY_ARGS)

    @given(
        st.lists(ipoint, min_size=5, max_size=20, unique=True),
        st.floats(1.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_does_not_collide(self, pts, s):
        mesh = _mesh_from(pts)
        scaled = mesh.with_vertices(mesh.vertices * s)
        assert disk_map_cache_key(
            mesh, *self.KEY_ARGS
        ) != disk_map_cache_key(scaled, *self.KEY_ARGS)

    @given(st.lists(ipoint, min_size=5, max_size=20, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_vertex_reordering_does_not_collide(self, pts):
        # Reordering is a *conservative miss*: the same region stored
        # under a different vertex order recomputes rather than risking
        # a wrong hit against mismatched indices.
        mesh = _mesh_from(pts)
        n = mesh.vertex_count
        perm = np.arange(n)[::-1]
        reordered = TriMesh(
            mesh.vertices[perm], np.asarray(perm[mesh.triangles])
        )
        assert disk_map_cache_key(
            mesh, *self.KEY_ARGS
        ) != disk_map_cache_key(reordered, *self.KEY_ARGS)

    @given(st.lists(ipoint, min_size=5, max_size=20, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_solver_parameters_split_keys(self, pts):
        mesh = _mesh_from(pts)
        base = disk_map_cache_key(mesh, "chord", "linear", 1e-7)
        assert base != disk_map_cache_key(mesh, "uniform", "linear", 1e-7)
        assert base != disk_map_cache_key(mesh, "chord", "iterative", 1e-7)


class TestStableHashProperties:
    @given(
        st.dictionaries(
            st.text(max_size=5), st.integers(), min_size=1, max_size=6
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_dict_insertion_order_irrelevant(self, d, rnd):
        items = list(d.items())
        rnd.shuffle(items)
        assert stable_hash(dict(items)) == stable_hash(d)

    @given(st.lists(st.integers(), max_size=6), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_appending_changes_hash(self, xs, y):
        assert stable_hash(xs) != stable_hash(xs + [y])

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_array_equals_itself_only(self, vals):
        arr = np.asarray(vals, dtype=float)
        assert stable_hash(arr) == stable_hash(arr.copy())
        assert stable_hash(arr) != stable_hash(arr + 1.0)
