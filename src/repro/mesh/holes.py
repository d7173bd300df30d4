"""Virtual-vertex hole filling (paper Sec. III-D3).

Harmonic mapping to a disk requires a topological disk, but FoIs (and
swarm triangulations over them) can have holes.  The paper's fix: "add
a virtual vertex for each hole and fill all holes with virtual
triangulations" - a triangle fan from the hole's centroid to its
boundary loop.  After the map is computed, virtual vertices and their
fan triangles are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MeshError
from repro.geometry.polygon import signed_area
from repro.mesh.trimesh import TriMesh

__all__ = ["FilledMesh", "fill_holes"]


@dataclass(frozen=True)
class FilledMesh:
    """A hole-free mesh derived from a mesh with hole loops.

    Attributes
    ----------
    mesh : TriMesh
        The filled mesh; vertices ``0 .. original_vertex_count - 1``
        coincide with the source mesh's vertices, followed by one
        virtual vertex per hole.
    original_vertex_count : int
        Number of non-virtual vertices.
    virtual_vertices : tuple[int, ...]
        Indices (into ``mesh.vertices``) of the added hole centroids.
    hole_loops : tuple[tuple[int, ...], ...]
        The source hole loops, for bookkeeping.
    """

    mesh: TriMesh
    original_vertex_count: int
    virtual_vertices: tuple[int, ...]
    hole_loops: tuple[tuple[int, ...], ...]

    @property
    def is_virtual(self) -> np.ndarray:
        """Boolean mask over the filled mesh's vertices."""
        mask = np.zeros(self.mesh.vertex_count, dtype=bool)
        mask[list(self.virtual_vertices)] = True
        return mask

    def strip_virtual(self, vertices: np.ndarray) -> np.ndarray:
        """Drop virtual-vertex rows from a per-vertex array."""
        return np.asarray(vertices)[: self.original_vertex_count]


def fill_holes(mesh: TriMesh) -> FilledMesh:
    """Fill every hole loop of ``mesh`` with a virtual-vertex fan.

    The virtual vertex is placed at the mean of the hole-loop vertices
    ("the position of a virtual vertex ... is computed as average of
    the positions of boundary vertices along the hole").

    Returns
    -------
    FilledMesh
        With ``mesh`` unchanged when there are no holes (zero virtual
        vertices).

    Raises
    ------
    MeshError
        If the filled mesh fails to become a topological disk.
    """
    holes = mesh.hole_loops
    if not holes:
        return FilledMesh(
            mesh=mesh,
            original_vertex_count=mesh.vertex_count,
            virtual_vertices=(),
            hole_loops=(),
        )
    vertices = [mesh.vertices]
    triangles = [mesh.triangles]
    virtual: list[int] = []
    next_idx = mesh.vertex_count
    for loop in holes:
        loop_arr = np.asarray(loop, dtype=int)
        center = mesh.vertices[loop_arr].mean(axis=0)
        vertices.append(center[None, :])
        # Orient the fan so its triangles are CCW: the hole loop bounds
        # the fan, so walk it in the orientation that encloses the
        # centroid positively.
        if signed_area(mesh.vertices[loop_arr]) < 0:
            loop_arr = loop_arr[::-1]
        triangles.append(
            np.column_stack(
                [loop_arr, np.roll(loop_arr, -1), np.full(len(loop_arr), next_idx)]
            )
        )
        virtual.append(next_idx)
        next_idx += 1
    filled = TriMesh(np.vstack(vertices), np.vstack(triangles))
    if len(filled.boundary_loops) != 1:
        raise MeshError(
            f"hole filling left {len(filled.boundary_loops)} boundary loops"
        )
    return FilledMesh(
        mesh=filled,
        original_vertex_count=mesh.vertex_count,
        virtual_vertices=tuple(virtual),
        hole_loops=tuple(tuple(int(v) for v in lp) for lp in holes),
    )
