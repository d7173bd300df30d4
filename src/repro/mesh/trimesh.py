"""Triangle-mesh data structure with boundary-loop extraction.

The marching pipeline manipulates two meshes: the triangulation ``T``
extracted from the swarm's connectivity graph and the grid
triangulation of the target FoI.  Both need the same queries: vertex
adjacency, boundary edges ("a boundary edge incidents with only one
triangle", Sec. III-B), ordered boundary loops, and structural
validation.  :class:`TriMesh` provides them over plain numpy arrays.

Every topology query reads one *side table* (:func:`side_table`): per
triangle side, its edge; per edge, how many sides lie on it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import MeshError
from repro.geometry.polygon import signed_area
from repro.geometry.vec import as_points

__all__ = ["TriMesh", "area_scale", "doubled_areas", "edges_of_triangles", "side_table"]


def side_table(triangles: np.ndarray, vertex_count: int):
    """``(edges, side_edge, side_count)`` of a ``(m, 3)`` triangle array.

    ``edges`` are the unique undirected edges ``(u, v)``, ``u < v``, in
    lexicographic order; ``side_edge[3 * t + k]`` is the index in
    ``edges`` of triangle ``t``'s side from corner ``k`` to corner
    ``(k + 1) % 3``; ``side_count[e]`` counts the sides on edge ``e``.
    """
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    u, v = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    n = max(int(vertex_count), 1)
    keys, side_edge, side_count = np.unique(
        np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True, return_counts=True
    )
    return np.column_stack([keys // n, keys % n]), side_edge, side_count


def edges_of_triangles(triangles: np.ndarray) -> np.ndarray:
    """Unique undirected edges ``(u, v)`` with ``u < v`` of a triangle array."""
    tris = np.asarray(triangles, dtype=int)
    return side_table(tris, tris.max() + 1 if tris.size else 0)[0]


def doubled_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Twice the signed area of every triangle, positive when counter-clockwise."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )


def area_scale(vertices: np.ndarray) -> float:
    """Squared extent of a vertex set, at least 1.

    Doubled areas are judged degenerate against this, so the verdict
    depends on the mesh's own size, not on where it sits.
    """
    return max(1.0, float(np.ptp(vertices, axis=0).max()) ** 2)


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
        or (numerically) degenerate triangles: doubled area below
        ``1e-14`` times :func:`area_scale` of the vertices.
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
            area2 = doubled_areas(self.vertices, tris)
            if np.any(np.abs(area2) < 1e-14 * area_scale(self.vertices)):
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
    def _sides(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return side_table(self.triangles, self.vertex_count)

    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges, each as ``(u, v)`` with ``u < v``."""
        return self._sides[0]

    @property
    def side_edge(self) -> np.ndarray:
        """Index in :attr:`edges` of side ``3 * t + k``: triangle ``t``'s
        edge from corner ``k`` to corner ``(k + 1) % 3``."""
        return self._sides[1]

    @property
    def edge_side_count(self) -> np.ndarray:
        """Number of triangle sides on each edge, aligned with :attr:`edges`."""
        return self._sides[2]

    @cached_property
    def side_pairs(self) -> np.ndarray:
        """``(p, 2)`` pairs of sides on one edge, consecutive in side order.

        Every edge with ``c`` sides gives ``c - 1`` pairs, which link all
        its sides; the triangles of a pair are ``pair // 3``.
        """
        order = np.argsort(self.side_edge, kind="stable")
        same = self.side_edge[order[1:]] == self.side_edge[order[:-1]]
        return np.column_stack([order[:-1][same], order[1:][same]])

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

    # ------------------------------------------------------------------
    # Boundary
    # ------------------------------------------------------------------

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """``(b, 2)`` edges incident to exactly one triangle, ``u < v``,
        in the order of their sides."""
        e = self.side_edge
        return self.edges[e[self.edge_side_count[e] == 1]]

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices on any boundary loop."""
        return np.unique(self.boundary_edges)

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        """Sorted indices of vertices not on any boundary."""
        return np.setdiff1d(np.arange(self.vertex_count), self.boundary_vertices)

    @cached_property
    def boundary_loops(self) -> list[list[int]]:
        """Closed boundary loops as ordered vertex-index lists.

        Each loop starts at its lowest vertex and first steps across
        that vertex's lowest-numbered boundary side; the first loop
        returned is the outer boundary (largest absolute enclosed
        area), the rest are hole loops.

        Raises
        ------
        MeshError
            If boundary edges do not form disjoint simple cycles (e.g.
            a vertex with more than two incident boundary edges, which
            indicates a non-manifold pinch).
        """
        ends = self.boundary_edges.ravel()
        counts = np.bincount(ends, minlength=self.vertex_count)[ends]
        if np.any(counts != 2):
            bad = int(np.argmax(counts != 2))
            raise MeshError(
                f"boundary vertex {ends[bad]} has {counts[bad]} boundary edges; "
                "mesh is pinched (non-manifold boundary)"
            )
        # Each boundary vertex's two neighbours, across its lower side first.
        order = np.argsort(ends, kind="stable")
        across = self.boundary_edges[:, ::-1].ravel()[order]
        step = dict(
            zip(ends[order][::2].tolist(), zip(across[::2].tolist(), across[1::2].tolist()))
        )
        loops: list[list[int]] = []
        visited: set[int] = set()
        for start in step:  # ascending, so each loop starts at its lowest vertex
            if start in visited:
                continue
            loop, prev, cur = [start], start, step[start][0]
            while cur != start:
                loop.append(cur)
                a, b = step[cur]
                prev, cur = cur, (a if a != prev else b)
            visited.update(loop)
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

    def submesh(self, triangle_indices) -> tuple["TriMesh", np.ndarray]:
        """Mesh restricted to the given triangles (an int array-like).

        Returns
        -------
        (TriMesh, (k,) int ndarray)
            The submesh and, for each of its vertices, the index of the
            originating vertex in this mesh.
        """
        t_idx = np.unique(np.asarray(triangle_indices, dtype=int))
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
        labels = component_labels(self.triangle_count, self.side_pairs // 3)
        return self.submesh(np.flatnonzero(labels == np.bincount(labels).argmax()))

    def edge_lengths(self) -> np.ndarray:
        """Length of every edge, aligned with :attr:`edges`."""
        e = self.edges
        d = self.vertices[e[:, 0]] - self.vertices[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def triangle_areas(self) -> np.ndarray:
        """Unsigned area of every triangle."""
        return 0.5 * np.abs(doubled_areas(self.vertices, self.triangles))
