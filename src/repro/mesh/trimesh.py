"""Triangle-mesh data structure with boundary-loop extraction.

The marching pipeline manipulates two meshes: the triangulation ``T``
extracted from the swarm's connectivity graph and the grid
triangulation of the target FoI.  Both need the same queries: vertex
adjacency, boundary edges ("a boundary edge incidents with only one
triangle", Sec. III-B), ordered boundary loops, and structural
validation.  :class:`TriMesh` provides them over plain numpy arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np

from repro.errors import MeshError
from repro.geometry.polygon import signed_area
from repro.geometry.vec import as_points

__all__ = ["TriMesh", "edges_of_triangles"]


def edges_of_triangles(triangles: np.ndarray) -> np.ndarray:
    """Unique undirected edges ``(u, v)`` with ``u < v`` of a triangle array."""
    tris = np.asarray(triangles, dtype=int)
    if tris.size == 0:
        return np.zeros((0, 2), dtype=int)
    e = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


class TriMesh:
    """An immutable 2-D triangle mesh.

    Parameters
    ----------
    vertices : (n, 2) array-like
        Vertex coordinates.
    triangles : (m, 3) int array-like
        Vertex indices; triangles are re-oriented CCW on construction.

    Raises
    ------
    MeshError
        On out-of-range indices, repeated vertices within a triangle,
        or (numerically) degenerate triangles.
    """

    def __init__(self, vertices, triangles) -> None:
        self.vertices = as_points(vertices)
        tris = np.asarray(triangles, dtype=int)
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError(f"triangles must have shape (m, 3), got {tris.shape}")
        if len(tris) and (tris.min() < 0 or tris.max() >= len(self.vertices)):
            raise MeshError("triangle indices out of range")
        if len(tris):
            dup = (
                (tris[:, 0] == tris[:, 1])
                | (tris[:, 1] == tris[:, 2])
                | (tris[:, 0] == tris[:, 2])
            )
            if dup.any():
                t = tris[int(np.flatnonzero(dup)[0])]
                raise MeshError(f"triangle {t.tolist()} repeats a vertex")
        # Orient all triangles counter-clockwise.
        if len(tris):
            a = self.vertices[tris[:, 0]]
            b = self.vertices[tris[:, 1]]
            c = self.vertices[tris[:, 2]]
            area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
                c[:, 0] - a[:, 0]
            )
            scale = max(1.0, float(np.abs(self.vertices).max()) ** 2)
            if np.any(np.abs(area2) < 1e-14 * scale):
                bad = int(np.argmin(np.abs(area2)))
                raise MeshError(f"triangle {tris[bad].tolist()} is degenerate")
            flip = area2 < 0
            tris = tris.copy()
            tris[flip] = tris[flip][:, ::-1]
        self.triangles = tris
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TriMesh(V={self.vertex_count}, E={len(self.edges)}, "
            f"F={self.triangle_count})"
        )

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges, each as ``(u, v)`` with ``u < v``."""
        return edges_of_triangles(self.triangles)

    @cached_property
    def edge_triangles(self) -> dict[tuple[int, int], list[int]]:
        """Mapping from undirected edge to the indices of incident triangles."""
        mapping: dict[tuple[int, int], list[int]] = {}
        for t_idx, (a, b, c) in enumerate(self.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                mapping.setdefault(key, []).append(t_idx)
        return mapping

    @cached_property
    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex adjacency in CSR form: ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v + 1]]`` are vertex ``v``'s
        neighbours in ascending order; the harmonic solvers consume
        this directly so assembling a Laplacian never loops over
        vertices in Python.
        """
        # Imported here: repro.network imports repro.mesh.
        from repro.network.graphs import csr_from_edges

        return csr_from_edges(self.vertex_count, self.edges)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Per-vertex sorted list of neighbouring vertex indices."""
        from repro.network.graphs import adjacency_from_csr

        return adjacency_from_csr(*self.adjacency_csr)

    def neighbors(self, v: int) -> list[int]:
        """Neighbouring vertex indices of vertex ``v``."""
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def vertex_triangles(self) -> list[list[int]]:
        """Per-vertex list of incident triangle indices."""
        vt: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for t_idx, tri in enumerate(self.triangles):
            for v in tri:
                vt[int(v)].append(t_idx)
        return vt

    # ------------------------------------------------------------------
    # Boundary
    # ------------------------------------------------------------------

    @cached_property
    def boundary_edges(self) -> list[tuple[int, int]]:
        """Edges incident to exactly one triangle."""
        return [e for e, ts in self.edge_triangles.items() if len(ts) == 1]

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices on any boundary loop."""
        verts: set[int] = set()
        for u, v in self.boundary_edges:
            verts.add(u)
            verts.add(v)
        return np.array(sorted(verts), dtype=int)

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        """Sorted indices of vertices not on any boundary."""
        b = set(self.boundary_vertices.tolist())
        return np.array([v for v in range(self.vertex_count) if v not in b], dtype=int)

    @cached_property
    def boundary_loops(self) -> list[list[int]]:
        """Closed boundary loops as ordered vertex-index lists.

        Each loop is ordered by walking boundary edges; the first loop
        returned is the outer boundary (largest absolute enclosed
        area), the rest are hole loops.

        Raises
        ------
        MeshError
            If boundary edges do not form disjoint simple cycles (e.g.
            a vertex with more than two incident boundary edges, which
            indicates a non-manifold pinch).
        """
        incident: dict[int, list[int]] = {}
        for u, v in self.boundary_edges:
            incident.setdefault(u, []).append(v)
            incident.setdefault(v, []).append(u)
        for v, nbrs in incident.items():
            if len(nbrs) != 2:
                raise MeshError(
                    f"boundary vertex {v} has {len(nbrs)} boundary edges; "
                    "mesh is pinched (non-manifold boundary)"
                )
        loops: list[list[int]] = []
        visited: set[int] = set()
        for start in sorted(incident):
            if start in visited:
                continue
            loop = [start]
            visited.add(start)
            prev, cur = None, start
            while True:
                nxt_candidates = [w for w in incident[cur] if w != prev]
                nxt = nxt_candidates[0]
                if nxt == start:
                    break
                loop.append(nxt)
                visited.add(nxt)
                prev, cur = cur, nxt
            loops.append(loop)
        loops.sort(
            key=lambda lp: abs(signed_area(self.vertices[np.array(lp)])), reverse=True
        )
        return loops

    @cached_property
    def outer_boundary_loop(self) -> list[int]:
        """The outer boundary loop, oriented counter-clockwise."""
        if not self.boundary_loops:
            raise MeshError("mesh has no boundary (empty or closed surface)")
        loop = self.boundary_loops[0]
        if signed_area(self.vertices[np.array(loop)]) < 0:
            loop = loop[::-1]
        return loop

    @property
    def hole_loops(self) -> list[list[int]]:
        """Boundary loops other than the outer one."""
        return self.boundary_loops[1:]

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def euler_characteristic(self) -> int:
        """``V - E + F`` (2 minus twice genus minus boundary count, +1 for disk)."""
        return self.vertex_count - len(self.edges) + self.triangle_count

    def is_topological_disk(self) -> bool:
        """Whether the mesh is a disk: connected, one boundary loop, Euler 1."""
        if self.triangle_count == 0:
            return False
        return (
            self.euler_characteristic == 1
            and len(self.boundary_loops) == 1
            and self.is_connected()
        )

    def is_connected(self) -> bool:
        """Whether the vertex-edge graph is a single component."""
        from repro.network.graphs import component_labels

        return not component_labels(self.vertex_count, self.edges).any()

    # ------------------------------------------------------------------
    # Derived meshes
    # ------------------------------------------------------------------

    def with_vertices(self, new_vertices) -> "TriMesh":
        """Same connectivity with replaced vertex coordinates."""
        new_v = as_points(new_vertices)
        if len(new_v) != self.vertex_count:
            raise MeshError(
                f"expected {self.vertex_count} vertices, got {len(new_v)}"
            )
        return TriMesh(new_v, self.triangles)

    def submesh(self, triangle_indices: Iterable[int]) -> tuple["TriMesh", np.ndarray]:
        """Mesh restricted to the given triangles.

        Returns
        -------
        (TriMesh, (k,) int ndarray)
            The submesh and, for each of its vertices, the index of the
            originating vertex in this mesh.
        """
        t_idx = np.asarray(sorted(set(int(i) for i in triangle_indices)), dtype=int)
        if len(t_idx) == 0:
            raise MeshError("submesh needs at least one triangle")
        tris = self.triangles[t_idx]
        used = np.unique(tris)
        remap = -np.ones(self.vertex_count, dtype=int)
        remap[used] = np.arange(len(used))
        return TriMesh(self.vertices[used], remap[tris]), used

    def largest_component(self) -> tuple["TriMesh", np.ndarray]:
        """The edge-connected triangle component with the most triangles.

        Ties keep the component holding the lowest triangle index.
        """
        from repro.network.graphs import component_labels

        if self.triangle_count == 0:
            raise MeshError("largest_component of an empty mesh")
        pairs = [(ts[0], t) for ts in self.edge_triangles.values() for t in ts[1:]]
        labels = component_labels(self.triangle_count, pairs)
        return self.submesh(np.flatnonzero(labels == np.bincount(labels).argmax()))

    def edge_lengths(self) -> np.ndarray:
        """Length of every edge, aligned with :attr:`edges`."""
        e = self.edges
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def triangle_areas(self) -> np.ndarray:
        """Unsigned area of every triangle."""
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.abs(
            (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        )
