"""Delaunay triangulation of point sets and FoIs.

scipy's ``Delaunay`` provides the raw triangulation; this module adapts
it to the library's needs: triangulating a (possibly concave, possibly
holed) Field of Interest by filtering triangles whose centroid falls
outside the free region, and triangulating swarm positions with a
maximum edge length (the communication range).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay

from repro.errors import MeshError, TriangulationError
from repro.foi.gridding import FoiPointSet, grid_foi, suggest_spacing
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points
from repro.mesh.trimesh import TriMesh, area_scale, doubled_areas
from repro.obs import span

__all__ = ["delaunay_mesh", "triangulate_foi", "FoiMesh", "delaunay_with_max_edge"]


def delaunay_mesh(points) -> TriMesh:
    """Plain Delaunay triangulation of a point set as a :class:`TriMesh`.

    Raises
    ------
    MeshError
        If fewer than 3 points or all points are collinear.
    """
    pts = as_points(points)
    if len(pts) < 3:
        raise MeshError("Delaunay triangulation needs at least 3 points")
    with span("mesh.delaunay", points=len(pts)) as sp_:
        try:
            tri = Delaunay(pts)
        except Exception as exc:  # qhull raises its own error type
            raise MeshError(f"Delaunay triangulation failed: {exc}") from exc
        simplices = np.asarray(tri.simplices, dtype=int)
        if len(simplices) == 0:
            raise MeshError("Delaunay triangulation produced no triangles")
        # Regular (lattice) inputs make qhull emit sliver simplices from
        # collinear points; drop them before the strict TriMesh validation.
        # Slivers are judged against the point set's own extent, so a
        # translated copy keeps the same triangles.
        keep = np.abs(doubled_areas(pts, simplices)) > 1e-12 * area_scale(pts)
        if not keep.any():
            raise MeshError("all Delaunay triangles are degenerate")
        sp_.set_attributes(triangles=int(keep.sum()))
    return TriMesh(pts, simplices[keep])


def delaunay_with_max_edge(points, max_edge: float) -> tuple[TriMesh, np.ndarray]:
    """Delaunay triangulation keeping only triangles with all edges short.

    This is the centralized oracle for connectivity-graph triangulation
    extraction: the Delaunay triangulation restricted to communication
    links (edges no longer than ``max_edge``), reduced to its largest
    connected component.

    Returns
    -------
    (TriMesh, (k,) int ndarray)
        The mesh and, for each of its vertices, the index of the source
        point.  ``k`` equals ``len(points)`` when no point was dropped.
    """
    mesh = delaunay_mesh(points)
    short = mesh.edge_lengths()[mesh.side_edge] <= max_edge
    keep = np.flatnonzero(short.reshape(-1, 3).all(axis=1))
    if len(keep) == 0:
        raise MeshError("no triangle satisfies the edge-length bound")
    return TriMesh(mesh.vertices, mesh.triangles[keep]).largest_component()


class FoiMesh:
    """A triangulated Field of Interest plus its sampling metadata.

    Attributes
    ----------
    mesh : TriMesh
        The triangulation of the free region.
    foi : FieldOfInterest
        The region that was triangulated.
    point_set : FoiPointSet
        The raw samples (note: the mesh may drop isolated samples; use
        ``vertex_map`` to translate indices).
    vertex_map : (k,) int ndarray
        For each mesh vertex, the index of the source sample point.
    """

    def __init__(
        self,
        mesh: TriMesh,
        foi: FieldOfInterest,
        point_set: FoiPointSet,
        vertex_map: np.ndarray,
    ) -> None:
        self.mesh = mesh
        self.foi = foi
        self.point_set = point_set
        self.vertex_map = vertex_map

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FoiMesh({self.foi.name!r}, {self.mesh!r})"


#: Grid refinements :func:`triangulate_foi` tries (pitch x0.9 each).
_REFINEMENTS = 6


def triangulate_foi(
    foi: FieldOfInterest,
    spacing: float | None = None,
    target_points: int = 600,
) -> FoiMesh:
    """Grid and triangulate a Field of Interest (paper Sec. III-B).

    Samples the FoI (boundary + interior grid), Delaunay-triangulates
    the samples, removes triangles whose centroid lies outside the free
    region (this carves out concavities and holes), and keeps the
    largest connected component.  The mesh must keep the FoI's topology
    (one boundary loop per FoI loop, no pinched vertex) for the
    harmonic map to exist; a grid too coarse for a narrow gap breaks
    that, so the pitch is refined deterministically until it holds.

    Returns
    -------
    FoiMesh

    Raises
    ------
    TriangulationError
        If the mesh is still unsound after ``_REFINEMENTS`` refinements.
    """
    if spacing is None:
        spacing = suggest_spacing(foi, target_points)
    for _ in range(_REFINEMENTS + 1):
        try:
            return _triangulate_grid(foi, grid_foi(foi, spacing=spacing))
        except MeshError as exc:
            error = exc
            spacing *= 0.9
    raise TriangulationError(f"{error} after {_REFINEMENTS} refinements") from error


def _triangulate_grid(foi: FieldOfInterest, ps: FoiPointSet) -> FoiMesh:
    """Triangulate one sampling of ``foi``; raise on the wrong topology."""
    pts = as_points(ps.points)
    # Triangulate in a translation-canonical frame (mean-centred,
    # snapped to a 1e-6 grid): qhull tie-breaks exactly co-circular
    # lattice points on raw coordinates, so translated copies of one
    # region would otherwise get structurally different triangulations
    # - defeating the content-addressed disk-map cache and making sweep
    # results depend on where M2 happens to sit.
    centered = pts - pts.mean(axis=0)
    canonical = np.round(centered / 1e-6) * 1e-6
    full = TriMesh(pts, delaunay_mesh(canonical).triangles)
    a = full.vertices[full.triangles[:, 0]]
    b = full.vertices[full.triangles[:, 1]]
    c = full.vertices[full.triangles[:, 2]]
    centroids = (a + b + c) / 3.0
    keep = foi.contains(centroids)
    # Also drop slivers along the boundary whose inradius is tiny; they
    # destabilise the harmonic map without adding coverage.
    areas = full.triangle_areas()
    per = (
        np.hypot(*(a - b).T) + np.hypot(*(b - c).T) + np.hypot(*(c - a).T)
    )
    inradius = 2.0 * areas / np.where(per > 0, per, 1.0)
    keep &= inradius > 1e-9 * max(1.0, float(np.sqrt(foi.area)))
    t_idx = np.flatnonzero(keep)
    if len(t_idx) < 4:
        raise MeshError("FoI triangulation kept too few triangles")
    sub, vmap = TriMesh(full.vertices, full.triangles[t_idx]).largest_component()
    if not sub.is_connected():
        raise MeshError("FoI triangulation is disconnected after filtering")
    expected_loops = 1 + len(foi.holes)
    if len(sub.boundary_loops) != expected_loops:
        raise MeshError(
            f"FoI triangulation has {len(sub.boundary_loops)} boundary loops, "
            f"expected {expected_loops}"
        )
    return FoiMesh(mesh=sub, foi=foi, point_set=ps, vertex_map=vmap)
