"""Dict-of-lists references for the ``TriMesh`` side-table queries.

Each function is the per-triangle or per-edge Python loop that
``repro.mesh`` ran before its topology moved onto the side table
(side ``3 * t + k`` is triangle ``t``'s edge from corner ``k`` to
corner ``(k + 1) % 3``).  The array queries must equal these bitwise:
same values, same order, same dtype, same error.
"""

import numpy as np

from repro.errors import MeshError
from repro.geometry.polygon import signed_area
from repro.network.graphs import component_labels


def edges(mesh):
    """Unique sorted rows of every side, smaller vertex first."""
    tris = mesh.triangles
    if tris.size == 0:
        return np.zeros((0, 2), dtype=int)
    e = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


def edge_triangles(mesh):
    """Undirected edge -> incident triangle indices, one ``setdefault`` per side."""
    mapping = {}
    for t_idx, (a, b, c) in enumerate(mesh.triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            mapping.setdefault(key, []).append(t_idx)
    return mapping


def vertex_triangles(mesh):
    """Per-vertex list of incident triangle indices."""
    vt = [[] for _ in range(mesh.vertex_count)]
    for t_idx, tri in enumerate(mesh.triangles):
        for v in tri:
            vt[int(v)].append(t_idx)
    return vt


def boundary_edges(mesh):
    """Edges with one incident triangle, in first-appearance order."""
    return [e for e, ts in edge_triangles(mesh).items() if len(ts) == 1]


def boundary_vertices(mesh):
    verts = set()
    for u, v in boundary_edges(mesh):
        verts.add(u)
        verts.add(v)
    return np.array(sorted(verts), dtype=int)


def interior_vertices(mesh):
    b = set(boundary_vertices(mesh).tolist())
    return np.array([v for v in range(mesh.vertex_count) if v not in b], dtype=int)


def boundary_loops(mesh):
    """The incidence-dict walk: loops start at their lowest vertex and
    step first to the neighbour of its first-listed boundary edge."""
    incident = {}
    for u, v in boundary_edges(mesh):
        incident.setdefault(u, []).append(v)
        incident.setdefault(v, []).append(u)
    for v, nbrs in incident.items():
        if len(nbrs) != 2:
            raise MeshError(
                f"boundary vertex {v} has {len(nbrs)} boundary edges; "
                "mesh is pinched (non-manifold boundary)"
            )
    loops = []
    visited = set()
    for start in sorted(incident):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = [w for w in incident[cur] if w != prev][0]
            if nxt == start:
                break
            loop.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        loops.append(loop)
    loops.sort(key=lambda lp: abs(signed_area(mesh.vertices[np.array(lp)])), reverse=True)
    return loops


def largest_component_triangles(mesh):
    """Triangle indices of the largest edge-connected component."""
    pairs = [(ts[0], t) for ts in edge_triangles(mesh).values() for t in ts[1:]]
    labels = component_labels(mesh.triangle_count, pairs)
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def fan_labels(mesh):
    """Corner fan labels from one ``(t0, t, v)`` triple per shared edge end."""
    tris = mesh.triangles
    t0, t1, v = np.array(
        [(ts[0], t, v) for edge, ts in edge_triangles(mesh).items() for t in ts[1:] for v in edge],
        dtype=np.int64,
    ).reshape(-1, 3).T

    def corner(t):
        return 3 * t + np.argmax(tris[t] == v[:, None], axis=1)

    return component_labels(3 * len(tris), np.column_stack([corner(t0), corner(t1)]))


def filled_triangles(mesh):
    """The source triangles plus one fan per hole loop, as ``fill_holes``
    listed them before building the filled mesh."""
    triangles = [mesh.triangles]
    next_idx = mesh.vertex_count
    for loop in mesh.hole_loops:
        loop_arr = np.asarray(loop, dtype=int)
        if signed_area(mesh.vertices[loop_arr]) < 0:
            loop_arr = loop_arr[::-1]
        triangles.append(np.array(
            [[loop_arr[i], loop_arr[(i + 1) % len(loop_arr)], next_idx]
             for i in range(len(loop_arr))],
            dtype=int,
        ))
        next_idx += 1
    return np.vstack(triangles)
