"""Tests for the TriMesh structure and boundary-loop extraction."""

import numpy as np
import pytest
from scipy.spatial import Delaunay

from repro.errors import MeshError
from repro.mesh import TriMesh, delaunay_mesh, edges_of_triangles, vertex_fans


def square_two_triangles():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    return TriMesh(verts, tris)


def annulus_mesh():
    """An 8-vertex square ring (outer square + inner square hole)."""
    outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
    inner = [(1, 1), (3, 1), (3, 3), (1, 3)]
    verts = outer + inner
    tris = [
        (0, 1, 4), (1, 5, 4), (1, 2, 5), (2, 6, 5),
        (2, 3, 6), (3, 7, 6), (3, 0, 7), (0, 4, 7),
    ]
    return TriMesh(verts, tris)


class TestConstruction:
    def test_empty_triangles_allowed(self):
        mesh = TriMesh([(0, 0), (1, 0)], np.zeros((0, 3), dtype=int))
        assert mesh.triangle_count == 0

    def test_bad_indices(self):
        with pytest.raises(MeshError):
            TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)])

    def test_repeated_vertex_in_triangle(self):
        with pytest.raises(MeshError):
            TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 0, 1)])

    def test_degenerate_triangle(self):
        with pytest.raises(MeshError):
            TriMesh([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])

    def test_degeneracy_judged_by_extent_not_position(self):
        unit = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        for offset in (0.0, 1e4, 1e7):
            assert TriMesh(unit + offset, [(0, 1, 2)]).triangle_count == 1
        with pytest.raises(MeshError):
            TriMesh([(1e7, 1e7), (1e7 + 1, 1e7 + 1), (1e7 + 2, 1e7 + 2)], [(0, 1, 2)])

    def test_translated_delaunay_keeps_its_triangles(self):
        pts = np.random.default_rng(0).uniform(0.0, 10.0, (50, 2))
        base = delaunay_mesh(pts).triangles
        for offset in (1e3, 1e6):
            assert np.array_equal(delaunay_mesh(pts + offset).triangles, base)
        # Further out qhull's own output changes; the sliver filter still
        # keeps every triangle it returns instead of emptying the mesh.
        far = pts + 1e7
        assert delaunay_mesh(far).triangle_count == len(Delaunay(far).simplices)

    def test_orientation_normalised_ccw(self):
        mesh = TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # given CW
        a, b, c = mesh.vertices[mesh.triangles[0]]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross > 0

    def test_arrays_read_only(self):
        mesh = square_two_triangles()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 9


class TestEdgesAdjacency:
    def test_edge_count(self):
        mesh = square_two_triangles()
        assert len(mesh.edges) == 5  # 4 sides + 1 diagonal

    def test_edges_sorted_unique(self):
        mesh = square_two_triangles()
        e = mesh.edges
        assert np.all(e[:, 0] < e[:, 1])
        assert len(np.unique(e, axis=0)) == len(e)

    def test_neighbors(self):
        mesh = square_two_triangles()
        assert mesh.neighbors(0) == [1, 2, 3]
        assert mesh.degree(1) == 2

    def test_edge_triangles(self):
        # Sides 0-2 are triangle 0's, 3-5 triangle 1's; edges are
        # (0,1) (0,2) (0,3) (1,2) (2,3).
        mesh = square_two_triangles()
        assert mesh.side_edge.tolist() == [0, 3, 1, 1, 4, 2]
        assert mesh.edge_side_count.tolist() == [1, 2, 1, 1, 1]  # the diagonal
        assert mesh.side_pairs.tolist() == [[2, 3]]  # both triangles on (0, 2)

    def test_vertex_triangles(self):
        mesh = square_two_triangles()
        assert vertex_fans(mesh, 0) == [[0, 1]]
        assert vertex_fans(mesh, 1) == [[0]]

    def test_edges_of_triangles_function(self):
        e = edges_of_triangles(np.array([[0, 1, 2], [1, 2, 3]]))
        assert len(e) == 5


class TestBoundary:
    def test_square_boundary(self):
        mesh = square_two_triangles()
        assert mesh.boundary_edges.tolist() == [[0, 1], [1, 2], [2, 3], [0, 3]]
        assert mesh.boundary_vertices.tolist() == [0, 1, 2, 3]
        assert len(mesh.interior_vertices) == 0

    def test_single_loop(self):
        mesh = square_two_triangles()
        loops = mesh.boundary_loops
        assert len(loops) == 1
        assert sorted(loops[0]) == [0, 1, 2, 3]

    def test_outer_loop_ccw(self):
        mesh = square_two_triangles()
        loop = mesh.outer_boundary_loop
        pts = mesh.vertices[np.array(loop)]
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0

    def test_annulus_two_loops(self):
        mesh = annulus_mesh()
        assert len(mesh.boundary_loops) == 2
        outer = set(mesh.outer_boundary_loop)
        assert outer == {0, 1, 2, 3}
        assert set(mesh.hole_loops[0]) == {4, 5, 6, 7}


class TestTopology:
    def test_disk_euler(self):
        mesh = square_two_triangles()
        assert mesh.euler_characteristic == 1
        assert mesh.is_topological_disk()

    def test_annulus_not_disk(self):
        mesh = annulus_mesh()
        assert mesh.euler_characteristic == 0
        assert not mesh.is_topological_disk()

    def test_connectivity(self):
        mesh = square_two_triangles()
        assert mesh.is_connected()

    def test_disconnected_detected(self):
        verts = [(0, 0), (1, 0), (0, 1), (10, 10), (11, 10), (10, 11)]
        mesh = TriMesh(verts, [(0, 1, 2), (3, 4, 5)])
        assert not mesh.is_connected()


class TestDerivedMeshes:
    def test_with_vertices(self):
        mesh = square_two_triangles()
        moved = mesh.with_vertices(mesh.vertices + 5.0)
        assert np.allclose(moved.vertices, mesh.vertices + 5.0)
        assert np.array_equal(moved.triangles, mesh.triangles)

    def test_with_vertices_count_mismatch(self):
        mesh = square_two_triangles()
        with pytest.raises(MeshError):
            mesh.with_vertices(np.zeros((3, 2)))

    def test_submesh(self):
        mesh = square_two_triangles()
        sub, vmap = mesh.submesh([0])
        assert sub.triangle_count == 1
        assert sub.vertex_count == 3
        assert np.allclose(sub.vertices, mesh.vertices[vmap])

    def test_largest_component(self):
        verts = [(0, 0), (1, 0), (0, 1), (10, 10), (11, 10), (10, 11), (11, 11)]
        tris = [(0, 1, 2), (3, 4, 5), (4, 6, 5)]
        mesh = TriMesh(verts, tris)
        big, vmap = mesh.largest_component()
        assert big.triangle_count == 2
        assert set(vmap.tolist()) == {3, 4, 5, 6}

    def test_edge_lengths_and_areas(self):
        mesh = square_two_triangles()
        assert mesh.triangle_areas().sum() == pytest.approx(1.0)
        lengths = mesh.edge_lengths()
        assert lengths.max() == pytest.approx(np.sqrt(2))
        assert lengths.min() == pytest.approx(1.0)

    def test_pinched_boundary_raises(self):
        # Two triangles sharing only vertex 2: vertex 2 has 4 boundary edges.
        verts = [(0, 0), (1, 0), (0.5, 0.5), (0, 1), (1, 1)]
        mesh = TriMesh(verts, [(0, 1, 2), (2, 3, 4)])
        with pytest.raises(MeshError):
            _ = mesh.boundary_loops
