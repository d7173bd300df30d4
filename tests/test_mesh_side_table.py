"""The side-table topology queries against the dict-of-lists oracle.

Every ``TriMesh`` topology query (edges, boundary edges and vertices,
boundary loops, largest component, fans, hole-fill fans) must equal
``tests/mesh_oracle.py`` bitwise on random Delaunay meshes, thinned
meshes with holes, pinches and stray triangles (and their pinch
repairs), holed FoI meshes,
hand-built pinched and non-manifold meshes, and the empty and
one-triangle meshes.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import MeshError
from repro.experiments.zoo.families import build_foi
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.geometry import Polygon
from repro.mesh import (
    TriMesh,
    delaunay_mesh,
    fill_holes,
    remove_pinches,
    triangulate_foi,
    vertex_fans,
)
from repro.mesh.repairs import _fan_labels
from tests import mesh_oracle as oracle


def _holed_foi():
    outer = Polygon([(0, 0), (100, 0), (100, 100), (0, 100)])
    holes = [
        ellipse_polygon(12.0, 10.0, samples=20, center=(30.0, 50.0)),
        ellipse_polygon(8.0, 14.0, samples=16, center=(70.0, 45.0)),
    ]
    return FieldOfInterest(outer, holes, name="two-holes")


@lru_cache(maxsize=None)
def _meshes():
    out = {
        "empty": TriMesh([(0, 0), (1, 0)], np.zeros((0, 3), dtype=int)),
        "one": TriMesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)]),
        "pinched": TriMesh(
            [(0, 0), (1, 0), (0.5, 0.5), (0, 1), (1, 1), (2, 0.5), (1.8, 1.2)],
            [(0, 1, 2), (2, 3, 4), (2, 4, 6)],
        ),
        "bowtie": TriMesh(
            [(0, 0), (1, 0), (0.5, 0.5), (0, 1), (1, 1)], [(0, 1, 2), (2, 3, 4)]
        ),
        # Three triangles on edge (0, 1), one of them folded over another.
        "non-manifold": TriMesh(
            [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)],
            [(0, 1, 2), (1, 0, 3), (0, 4, 1)],
        ),
        "foi/two-holes": triangulate_foi(_holed_foi(), target_points=300).mesh,
    }
    for family in ("archipelago", "rough"):
        foi, _ = build_foi(family, 0, validate=False)
        out[f"foi/{family}/0"] = triangulate_foi(foi, target_points=400).mesh
    for seed in range(6):
        rng = np.random.default_rng(seed)
        mesh = delaunay_mesh(rng.uniform(0.0, 10.0, (30 + 20 * seed, 2)))
        out[f"delaunay/{seed}"] = mesh
        keep = rng.random(mesh.triangle_count) < 0.75
        out[f"thinned/{seed}"] = TriMesh(mesh.vertices, mesh.triangles[keep])
        out[f"repaired/{seed}"] = remove_pinches(out[f"thinned/{seed}"])[0]
    return out


NAMES = [
    "empty", "one", "pinched", "bowtie", "non-manifold", "foi/two-holes",
    "foi/archipelago/0", "foi/rough/0",
    *(f"{kind}/{seed}" for kind in ("delaunay", "thinned", "repaired") for seed in range(6)),
]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raises", message)``."""
    try:
        return "ok", fn(*args)
    except MeshError as exc:
        return "raises", str(exc)


def test_names_cover_every_mesh():
    assert sorted(NAMES) == sorted(_meshes())


@pytest.fixture(params=NAMES)
def mesh(request):
    return _meshes()[request.param]


def test_edges(mesh):
    _same(mesh.edges, oracle.edges(mesh))


def test_side_edge_and_counts(mesh):
    sides = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)], axis=2)
    _same(mesh.edges[mesh.side_edge], np.sort(sides.reshape(-1, 2), axis=1))
    incidence = oracle.edge_triangles(mesh)
    counts = [len(incidence[(u, v)]) for u, v in mesh.edges.tolist()]
    assert mesh.edge_side_count.tolist() == counts


def test_side_pairs_link_each_edges_triangles(mesh):
    pairs = mesh.side_pairs
    assert np.all(mesh.side_edge[pairs[:, 0]] == mesh.side_edge[pairs[:, 1]])
    assert np.all(pairs[:, 0] < pairs[:, 1])
    linked = {}
    for s0, s1 in pairs.tolist():
        linked.setdefault(int(mesh.side_edge[s0]), [s0 // 3]).append(s1 // 3)
    incidence = oracle.edge_triangles(mesh)
    expected = {
        e: incidence[(u, v)]
        for e, (u, v) in enumerate(mesh.edges.tolist())
        if mesh.edge_side_count[e] > 1
    }
    assert linked == expected


def test_boundary_edges_and_vertices(mesh):
    _same(mesh.boundary_edges, np.array(oracle.boundary_edges(mesh), dtype=int).reshape(-1, 2))
    _same(mesh.boundary_vertices, oracle.boundary_vertices(mesh))
    _same(mesh.interior_vertices, oracle.interior_vertices(mesh))


def test_boundary_loops(mesh):
    got = _outcome(lambda: mesh.boundary_loops)
    assert got == _outcome(oracle.boundary_loops, mesh)
    if got[0] == "ok":
        assert all(type(v) is int for loop in got[1] for v in loop)


def test_largest_component(mesh):
    if mesh.triangle_count == 0:
        with pytest.raises(MeshError):
            mesh.largest_component()
        return
    sub, vmap = mesh.largest_component()
    t_idx = oracle.largest_component_triangles(mesh)
    tris = mesh.triangles[t_idx]
    used = np.unique(tris)
    remap = -np.ones(mesh.vertex_count, dtype=int)
    remap[used] = np.arange(len(used))
    _same(vmap, used)
    _same(sub.vertices, mesh.vertices[used])
    _same(sub.triangles, remap[tris])


def test_fans(mesh):
    _same(_fan_labels(mesh), oracle.fan_labels(mesh))
    incident = oracle.vertex_triangles(mesh)
    for v in range(mesh.vertex_count):
        fans = vertex_fans(mesh, v)
        assert sorted(t for fan in fans for t in fan) == incident[v]


def test_fill_holes(mesh):
    got = _outcome(fill_holes, mesh)
    loops = _outcome(lambda: mesh.hole_loops)
    if loops[0] == "raises":
        assert got == loops
        return
    expected = _outcome(
        lambda: TriMesh(
            np.vstack([mesh.vertices]
                      + [mesh.vertices[lp].mean(axis=0)[None] for lp in loops[1]]),
            oracle.filled_triangles(mesh),
        )
    )
    if got[0] == "raises":
        assert expected[0] == "raises" or len(oracle.boundary_loops(expected[1])) != 1
        return
    assert expected[0] == "ok"
    _same(got[1].mesh.vertices, expected[1].vertices)
    _same(got[1].mesh.triangles, expected[1].triangles)
