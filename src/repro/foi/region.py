"""Fields of Interest: polygon regions with optional holes.

A :class:`FieldOfInterest` (FoI) is the region a swarm is asked to
cover: an outer simple polygon minus zero or more disjoint hole
polygons ("obstacles or landscape features that forbid mobile robot
placement", Sec. III-D3 of the paper).  The class provides containment,
area, boundary queries, and nearest-free-point projection - the
operations the marching pipeline and the Lloyd adjustment need.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.edges import EdgeTable
from repro.geometry.polygon import Polygon
from repro.geometry.vec import as_point, as_points

__all__ = ["FieldOfInterest"]


def _free(verdict: np.ndarray) -> np.ndarray:
    """In the free region: inside the outer loop and in no hole."""
    return verdict[:, 0] & ~verdict[:, 1:].any(axis=1)


class FieldOfInterest:
    """A planar region bounded by an outer polygon minus hole polygons.

    Parameters
    ----------
    outer : Polygon or (n, 2) array-like
        Outer boundary.
    holes : iterable of Polygon or array-like, optional
        Hole boundaries.  Each hole must lie inside the outer polygon,
        holes must not contain one another, and no hole edge may
        properly cross another hole's or the outer boundary's edges.
    name : str
        Human-readable label used by experiments and figures.
    """

    def __init__(self, outer, holes: Iterable = (), name: str = "foi") -> None:
        self.outer = outer if isinstance(outer, Polygon) else Polygon(outer)
        self.holes: tuple[Polygon, ...] = tuple(
            h if isinstance(h, Polygon) else Polygon(h) for h in holes
        )
        self.name = str(name)
        for i, hole in enumerate(self.holes):
            if not bool(np.all(self.outer.contains(hole.vertices))):
                raise GeometryError(f"hole {i} is not contained in the outer boundary")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                if bool(
                    np.any(self.holes[i].contains(self.holes[j].vertices))
                ) or bool(np.any(self.holes[j].contains(self.holes[i].vertices))):
                    raise GeometryError(f"holes {i} and {j} overlap")
        crossing = self.edge_table.crossing_loops() if self.holes else None
        if crossing is not None:
            a, b = crossing
            if a == 0:
                raise GeometryError(f"hole {b - 1} crosses the outer boundary")
            raise GeometryError(f"holes {a - 1} and {b - 1} overlap")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FieldOfInterest(name={self.name!r}, area={self.area:.0f}, "
            f"holes={len(self.holes)})"
        )

    @cached_property
    def area(self) -> float:
        """Free area: outer area minus total hole area."""
        return self.outer.area - sum(h.area for h in self.holes)

    @property
    def has_holes(self) -> bool:
        return len(self.holes) > 0

    @cached_property
    def centroid(self) -> np.ndarray:
        """Area centroid of the free region (holes subtracted)."""
        num = self.outer.centroid * self.outer.area
        for h in self.holes:
            num = num - h.centroid * h.area
        return num / self.area

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box of the outer boundary."""
        return self.outer.bounds

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    @cached_property
    def edge_table(self) -> EdgeTable:
        """Outer boundary (loop 0) then holes (loops 1..) as one
        :class:`~repro.geometry.edges.EdgeTable`."""
        return EdgeTable((self.outer,) + self.holes)

    def _verdicts(self, p: np.ndarray) -> np.ndarray:
        """Per-loop verdicts from one pass over the edge table: outer
        boundary with its band (loop 0), holes strictly (loops 1..)."""
        return self.edge_table.inside(p, band=(0,))

    def contains(self, points) -> np.ndarray:
        """Whether points lie in the free region (inside outer, outside holes)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        p = as_points(pts[None, :] if single else pts)
        inside = _free(self._verdicts(p))
        return bool(inside[0]) if single else inside

    def hole_containing(self, point) -> int | None:
        """Index of the hole containing ``point``, or ``None``."""
        in_hole = self.edge_table.parity(as_point(point)[None, :])[0, 1:]
        return int(np.argmax(in_hole)) if in_hole.any() else None

    def boundary_distances(self, points) -> np.ndarray:
        """Distances from many points to the nearest boundary, vectorised."""
        return self.edge_table.min_distances(as_points(points))

    def boundary_distance(self, point) -> float:
        """Distance from ``point`` to the nearest boundary (outer or hole)."""
        return float(self.boundary_distances(as_point(point)[None, :])[0])

    def hole_distances(self, points) -> np.ndarray:
        """Distances to the nearest hole boundary (``inf`` without holes)."""
        return self.edge_table.min_distances(as_points(points), first_loop=1)

    def hole_distance(self, point) -> float:
        """Distance to the nearest hole boundary; ``inf`` if there are none."""
        return float(self.hole_distances(as_point(point)[None, :])[0])

    # ------------------------------------------------------------------
    # Projection / sampling
    # ------------------------------------------------------------------

    def project_inside(self, points) -> np.ndarray:
        """Nearest point of the free region to each of ``points``.

        Accepts one ``(2,)`` point or an ``(m, 2)`` array, as
        :meth:`contains` does.  Points already in the free region are
        returned unchanged.  Points in a hole are pushed to the nearest
        point of that hole's boundary (the paper's "choose the nearest
        grid point along the hole boundary" rule, in continuous form);
        points outside the outer polygon are pulled to its boundary.
        Each projection is then nudged off the boundary toward the free
        side, and the nudge is kept only if the nudged point is in the
        free region.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        p = as_points(pts[None, :] if single else pts)
        out = p.copy()
        verdict = self._verdicts(p)
        todo = np.flatnonzero(~_free(verdict))
        if len(todo):
            in_hole = verdict[todo]
            in_hole[:, 0] = False
            loop = in_hole.argmax(axis=1)  # the first hole holding it, else 0
            best = self.edge_table.project(p[todo], loop)
            centre = np.vstack([self.centroid] + [h.centroid for h in self.holes])[loop]
            outer = (loop == 0)[:, None]
            direction = np.where(outer, centre - best, best - centre)
            nrm = np.hypot(direction[:, 0], direction[:, 1])
            nudge = np.flatnonzero(nrm > 1e-12)
            candidate = (
                best[nudge]
                + direction[nudge] / nrm[nudge, None] * 1e-6 * max(1.0, np.sqrt(self.area))
            )
            accept = _free(self._verdicts(candidate))
            best[nudge[accept]] = candidate[accept]
            out[todo] = best
        return out[0] if single else out

    def grid_points(self, spacing: float) -> np.ndarray:
        """Square-grid points inside the free region at pitch ``spacing``."""
        if spacing <= 0:
            raise GeometryError("grid spacing must be positive")
        pts = self.outer.grid_points(spacing)
        if len(pts) == 0 or not self.holes:
            return pts
        verdict = self.edge_table.inside(pts, band=range(1, self.edge_table.loops))
        return pts[~verdict[:, 1:].any(axis=1)]

    def sample_free_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` uniform random points of the free region (rejection sampling)."""
        xmin, ymin, xmax, ymax = self.bounds
        out: list[np.ndarray] = []
        attempts = 0
        while len(out) < n:
            attempts += 1
            if attempts > 1000 * max(n, 10):
                raise GeometryError("rejection sampling failed; region too thin?")
            batch = rng.uniform([xmin, ymin], [xmax, ymax], size=(max(n, 64), 2))
            good = batch[self.contains(batch)]
            out.extend(good[: n - len(out)])
        return np.array(out[:n])

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def translated(self, offset) -> "FieldOfInterest":
        """A copy of the FoI shifted by ``offset``."""
        off = np.asarray(offset, dtype=float)
        return FieldOfInterest(
            self.outer.translated(off),
            [h.translated(off) for h in self.holes],
            name=self.name,
        )

    def scaled_to_area(self, target_area: float) -> "FieldOfInterest":
        """A copy uniformly scaled so the *free* area equals ``target_area``."""
        if target_area <= 0:
            raise GeometryError("target area must be positive")
        factor = float(np.sqrt(target_area / self.area))
        c = self.outer.centroid
        return FieldOfInterest(
            self.outer.scaled(factor, about=c),
            [h.scaled(factor, about=c) for h in self.holes],
            name=self.name,
        )

    def boundary_polylines(self) -> Sequence[np.ndarray]:
        """All boundary loops (outer first, then holes) as vertex arrays."""
        return [self.outer.vertices] + [h.vertices for h in self.holes]
