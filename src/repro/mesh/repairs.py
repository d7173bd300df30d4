"""Mesh repairs: making extracted triangulations manifold.

A Delaunay-restricted-to-links triangulation of an irregular swarm
(e.g. robots strung out mid-march) can be *pinched*: two triangle fans
touching at a single vertex, giving that vertex four boundary edges.
Harmonic mapping needs a manifold disk, so the planner cleans such
meshes first: at every pinched vertex only the largest fan survives,
then the largest connected component is kept.  Dropped triangles only
ever remove stragglers, which the planner escorts (same treatment as
robots outside the triangulation entirely).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeshError
from repro.mesh.trimesh import TriMesh

__all__ = ["remove_pinches", "vertex_fans"]

_MAX_PASSES = 50


def _fan_labels(mesh: TriMesh) -> np.ndarray:
    """Fan label of every triangle corner; corner ``3 * t + k`` is ``triangles[t, k]``.

    Two corners of one vertex share a fan when their triangles share an
    edge through that vertex.  Fans are numbered by their lowest corner,
    so a vertex's fans come in the order of their lowest triangle.
    """
    # Imported here: repro.network imports repro.mesh.
    from repro.network.graphs import component_labels

    # Side s runs from corner s to the next corner of its triangle, n;
    # sides on one edge run the same way (join s-s, n-n) or opposite ways.
    s0, s1 = mesh.side_pairs.T
    n0, n1 = s0 + 1 - 3 * (s0 % 3 == 2), s1 + 1 - 3 * (s1 % 3 == 2)
    flat = mesh.triangles.ravel()
    same = flat[s0] == flat[s1]
    pairs = np.concatenate([
        np.column_stack([s0, np.where(same, s1, n1)]),
        np.column_stack([n0, np.where(same, n1, s1)]),
    ])
    return component_labels(len(flat), pairs)


def vertex_fans(mesh: TriMesh, vertex: int) -> list[list[int]]:
    """Groups of ``vertex``'s incident triangles connected via shared edges.

    Two incident triangles belong to the same fan when they share an
    edge that contains ``vertex``.  A manifold vertex has exactly one
    fan; a pinched vertex has several.  Largest fan first, ties by
    lowest triangle; each fan lists its triangles in ascending order.
    """
    from repro.network.graphs import components_largest_first

    corners = np.flatnonzero(mesh.triangles.ravel() == vertex)
    fans = np.unique(_fan_labels(mesh)[corners], return_inverse=True)[1]
    return [(corners[f] // 3).tolist() for f in components_largest_first(fans)]


def remove_pinches(mesh: TriMesh) -> tuple[TriMesh, np.ndarray]:
    """Drop minority fans at pinched vertices until the mesh is manifold.

    Returns
    -------
    (TriMesh, (k,) int ndarray)
        The repaired mesh (largest component) and, per vertex, the
        index of the originating vertex.

    Raises
    ------
    MeshError
        If repair degenerates to an empty mesh.
    """
    current = mesh
    vmap = np.arange(mesh.vertex_count)
    for _ in range(_MAX_PASSES):
        # Each vertex keeps its largest fan (ties: the lowest triangle's)
        # and drops the triangles of every other fan.
        labels = _fan_labels(current)
        sizes = np.bincount(labels)
        fan_vertex = np.empty(len(sizes), dtype=np.int64)
        fan_vertex[labels] = current.triangles.ravel()
        order = np.lexsort((-sizes, fan_vertex))
        kept = np.zeros(len(sizes), dtype=bool)
        kept[order[np.diff(fan_vertex[order], prepend=-1) != 0]] = True
        dropped = np.zeros(current.triangle_count, dtype=bool)
        dropped[np.flatnonzero(~kept[labels]) // 3] = True
        if not dropped.any():
            sub, sub_map = current.largest_component()
            return sub, vmap[sub_map]
        if dropped.all():
            raise MeshError("pinch removal emptied the mesh")
        current, step_map = current.submesh(np.flatnonzero(~dropped))
        vmap = vmap[step_map]
    raise MeshError("pinch removal did not converge")
