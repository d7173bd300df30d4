"""Hole-avoiding detour paths (Sec. III-D3 of the paper).

When a robot's straight-line moving path crosses a hole, the paper's
rule is: "when the mobile robot hits the boundary of the hole, the
robot goes along the boundary until it can follow its computed moving
path again."  :func:`detour_path` turns a straight segment into the
corresponding piecewise-linear path: enter the hole boundary at the
first intersection, walk the shorter boundary arc (slightly inflated so
the path stays in the free region), and leave at the last intersection.

The core functions operate on a plain list of hole polygons, so a
march can avoid the *union* of the source and target FoIs' holes
(robots leaving a hole-bearing M1 must dodge its obstacles just as they
dodge M2's); the ``FieldOfInterest`` wrappers keep the convenient
single-region interface.

Batch design
------------
Every edge of every hole goes into one flat
:class:`~repro.geometry.edges.EdgeTable`, and many segments are tested
against all of it at once: a few NumPy operations over a
``(segments, edges)`` grid, processed in row blocks of at most
:data:`~repro.geometry.edges._BLOCK_CELLS` cells so temporaries stay
small at swarm scale.  The grid repeats the floating-point expressions of
:func:`~repro.geometry.segment.segment_intersection_point` element by
element, so every hit point is bitwise the scalar one; the few
parallel/collinear edges go through that scalar function itself, and
each hit's segment parameter is computed on the hits only, with the
scalar expression.  The midpoint interior test behind "blocked" is one
parity pass of the same table over every midpoint.

:func:`paths_blocked_by_holes` applies this to a whole swarm's straight
paths, so only the blocked robots enter :func:`detour_path_holes`.  Its
repair loop re-scans only from the segment it just repaired: the
segments before it were verified free and never change.  The original
per-edge implementation is the test oracle (``tests/detour_oracle.py``);
the batch code returns bitwise-identical waypoints.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.foi.region import FieldOfInterest
from repro.geometry.edges import _BLOCK_CELLS, EdgeTable
from repro.geometry.polygon import Polygon
from repro.geometry.segment import _EPS, segment_intersection_point
from repro.geometry.vec import as_point, as_points, polyline_length

__all__ = [
    "detour_path",
    "detour_path_holes",
    "path_blocked_by_hole",
    "path_blocked_by_holes",
    "paths_blocked_by_holes",
]

_MAX_DETOURS = 32

# A hit: (segment parameter t, point, edge index within its hole).
Hit = tuple[float, np.ndarray, int]


def _merge_hits(hits: list[Hit]) -> list[Hit]:
    """Sort hits by ``t`` (stable) and merge coinciding ones (a segment
    passing exactly through a vertex hits both of its edges)."""
    hits.sort(key=lambda h: h[0])
    merged: list[Hit] = []
    for h in hits:
        if merged and abs(h[0] - merged[-1][0]) < 1e-9:
            continue
        merged.append(h)
    return merged


def _segment_hits(edges: EdgeTable, p: np.ndarray, q: np.ndarray) -> list[dict[int, list[Hit]]]:
    """Intersections of the segments ``[p[i], q[i]]`` with every hole.

    Returns one ``{hole index: hits}`` dict per segment, where ``hits``
    equals the per-edge scalar loop for that segment and hole (same
    floats, same order); holes with no hit are left out.
    """
    out: list[dict[int, list[Hit]]] = [{} for _ in range(len(p))]
    if len(edges) == 0:
        return out
    rows_per_block = max(1, _BLOCK_CELLS // len(edges))
    for lo in range(0, len(p), rows_per_block):
        pb, qb = p[lo : lo + rows_per_block], q[lo : lo + rows_per_block]
        # segment_intersection_point with a1 = p, a2 = q, b1/b2 = edge ends.
        d1 = qb - pb
        dx, dy = d1[:, :1], d1[:, 1:]
        wx = edges.start[:, 0] - pb[:, :1]
        wy = edges.start[:, 1] - pb[:, 1:]
        denom = dx * edges.dy - dy * edges.dx
        crossing = np.abs(denom) > _EPS * np.maximum(1.0, (np.abs(dx) + np.abs(dy)) * edges.l1)
        with np.errstate(all="ignore"):
            t = (wx * edges.dy - wy * edges.dx) / denom
            u = (wx * dy - wy * dx) / denom
            hit = crossing & (t >= -1e-12) & (t <= 1.0 + 1e-12) & (u >= -1e-12) & (u <= 1.0 + 1e-12)
        # Parallel edges may still overlap collinearly: scalar fallback.
        rows, cols = np.nonzero(hit | ~crossing)
        if len(rows) == 0:
            continue
        is_hit = hit[rows, cols]
        points = pb[rows] + np.clip(np.where(is_hit, t[rows, cols], 0.0), 0.0, 1.0)[:, None] * d1[rows]
        bounds = np.searchsorted(rows, np.arange(len(pb) + 1))
        for r in np.unique(rows).tolist():
            a, b = pb[r], qb[r]
            seg = b - a
            seg_len2 = float(seg @ seg)
            if seg_len2 < 1e-24:
                continue
            per_hole = out[lo + r]
            for k in range(bounds[r], bounds[r + 1]):
                c = int(cols[k])
                if is_hit[k]:
                    x = points[k]
                else:
                    x = segment_intersection_point(a, b, edges.start[c], edges.end[c])
                    if x is None:
                        continue
                h = int(edges.owner[c])
                tk = float((x - a) @ seg / seg_len2)
                per_hole.setdefault(h, []).append((tk, x, c - int(edges.offset[h])))
            for h, hits in per_hole.items():
                per_hole[h] = _merge_hits(hits)
    return out


def _first_blocking(
    edges: EdgeTable, p: np.ndarray, q: np.ndarray
) -> list[tuple[int, list[Hit]] | None]:
    """Per segment, ``(hole index, hits)`` of the first hole whose interior
    it crosses (as :func:`path_blocked_by_holes`), or ``None``."""
    hits = _segment_hits(edges, p, q)
    # Midpoints between consecutive crossings decide interior passage.
    mids: list[tuple[int, int, int, np.ndarray]] = []
    for i, per_hole in enumerate(hits):
        for h, hh in per_hole.items():
            for k in range(len(hh) - 1):
                mids.append((i, h, k, (hh[k][1] + hh[k + 1][1]) / 2.0))
    interior: dict[tuple[int, int], int] = {}
    if mids:
        holes = [h for _, h, _, _ in mids]
        inside = edges.parity(np.array([mid for *_, mid in mids]))[np.arange(len(mids)), holes]
        for (i, h, k, _), flag in zip(mids, inside):
            if flag:
                interior.setdefault((i, h), k)  # each (i, h) runs in k order
    out: list[tuple[int, list[Hit]] | None] = [None] * len(hits)
    first_t: dict[int, float] = {}
    for (i, h), k in sorted(interior.items()):
        t0 = hits[i][h][k][0]
        if i not in first_t or t0 < first_t[i]:
            first_t[i] = t0
            out[i] = (h, hits[i][h])
    return out


def paths_blocked_by_holes(holes: Sequence[Polygon], starts, ends) -> np.ndarray:
    """:func:`path_blocked_by_holes` for many segments in one batch.

    Returns an int array holding, per segment ``[starts[i], ends[i]]``,
    the index of the first hole whose interior it crosses, or ``-1``
    when the straight path is free.
    """
    p = as_points(starts)
    q = as_points(ends)
    if len(p) != len(q):
        raise GeometryError("start/end count mismatch")
    found = _first_blocking(EdgeTable(holes), p, q)
    return np.array([-1 if f is None else f[0] for f in found], dtype=int)


def path_blocked_by_holes(holes: Sequence[Polygon], p, q) -> int | None:
    """Index of the first hole whose *interior* the segment ``[p, q]`` crosses.

    Grazing contact with a hole boundary does not count.  Returns
    ``None`` when the straight path is free.
    """
    found = paths_blocked_by_holes(holes, [as_point(p)], [as_point(q)])[0]
    return None if found < 0 else int(found)


def path_blocked_by_hole(foi: FieldOfInterest, p, q) -> int | None:
    """:func:`path_blocked_by_holes` over one FoI's hole list."""
    return path_blocked_by_holes(foi.holes, p, q)


def _inflate(hole: Polygon, margin: float) -> np.ndarray:
    """Hole boundary pushed outward from its centroid by ``margin``.

    Each vertex moves radially away from the centroid.  That is outward
    (the inflated boundary encloses the hole) only for holes star-shaped
    about their centroid, so only for those is the detour guaranteed to
    stay in the free region; elsewhere an inflated vertex can land
    inside the hole.
    """
    c = hole.centroid
    v = hole.vertices - c
    norms = np.hypot(v[:, 0], v[:, 1])
    norms = np.where(norms < 1e-12, 1.0, norms)
    return c + v * (1.0 + margin / norms)[:, None]


def _detour_arc(hole: Polygon, hits: list[Hit], margin: float) -> list[np.ndarray]:
    """Entry point, the shorter inflated boundary arc, and exit point."""
    (_, enter, e_in), (_, leave, e_out) = hits[0], hits[-1]
    inflated = _inflate(hole, margin)
    n = len(inflated)
    # Walk vertices from the entry edge to the exit edge both ways
    # and keep the shorter boundary arc.
    fwd = [inflated[i % n] for i in range(e_in + 1, e_in + 1 + ((e_out - e_in) % n))]
    bwd = [inflated[i % n] for i in range(e_in, e_in - ((e_in - e_out) % n), -1)]
    cand_f = [enter] + fwd + [leave]
    cand_b = [enter] + bwd + [leave]
    arc = cand_f if polyline_length(cand_f) <= polyline_length(cand_b) else cand_b
    return [np.asarray(w, dtype=float) for w in arc]


def detour_path_holes(
    holes: Sequence[Polygon], p, q, margin: float = 1.0, *, return_repairs: bool = False
) -> np.ndarray | tuple[np.ndarray, int]:
    """Piecewise-linear path from ``p`` to ``q`` avoiding ``holes``.

    Parameters
    ----------
    holes : sequence of Polygon
        Forbidden regions (need not belong to one FoI).
    p, q : (2,) array-like
        Path endpoints; must lie outside every hole.
    margin : float
        Absolute boundary-walk inflation keeping the detour strictly
        outside the holes.
    return_repairs : bool
        Also return the number of boundary arcs inserted.

    Returns
    -------
    (k, 2) ndarray
        Waypoints including both endpoints.  ``k == 2`` when the
        straight segment is already free.  With ``return_repairs``, a
        ``(waypoints, repairs)`` pair.

    Raises
    ------
    GeometryError
        If no free path is found within a bounded number of repairs
        (e.g. pathological hole layouts); the message names the hole
        that still blocks the path and the repair count.
    """
    p = as_point(p)
    q = as_point(q)
    edges = EdgeTable(holes)
    path = [p.copy(), q.copy()]
    start = 0  # segments before ``start`` are verified free
    for repairs in range(_MAX_DETOURS):
        pts = np.array(path)
        blocked = _first_blocking(edges, pts[start:-1], pts[start + 1 :])
        found = next((k for k, b in enumerate(blocked) if b is not None), None)
        if found is None:
            return (pts, repairs) if return_repairs else pts
        start += found
        hole_idx, hits = blocked[found]
        path[start + 1 : start + 1] = _detour_arc(edges.polygons[hole_idx], hits, margin)
    raise GeometryError(
        f"detour did not converge after {_MAX_DETOURS} repairs (the last around "
        f"hole {hole_idx}, at segment {start}); hole layout too complex"
    )


def detour_path(foi: FieldOfInterest, p, q, margin_fraction: float = 1e-3) -> np.ndarray:
    """:func:`detour_path_holes` over one FoI, with area-relative margin."""
    margin = margin_fraction * max(1.0, float(np.sqrt(foi.area)))
    return detour_path_holes(foi.holes, p, q, margin=margin)
