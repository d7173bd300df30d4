"""Scalar per-edge references for the batch hole-detour code.

Each function is the original implementation :mod:`repro.foi.detour`
ran before its hole tests became one pass over an
:class:`~repro.geometry.edges.EdgeTable`: one hole and one segment at a
time, one edge per :func:`segment_intersection_point` call.  The batch
code must return the same hits, the same blocking hole and bitwise the
same detour waypoints.
"""

from typing import Sequence

import numpy as np

from repro.errors import GeometryError
from repro.foi.detour import _MAX_DETOURS, Hit, _detour_arc, _merge_hits
from repro.geometry.polygon import Polygon
from repro.geometry.segment import segment_intersection_point
from repro.geometry.vec import as_point


def segment_hole_hits(p, q, hole: Polygon) -> list[Hit]:
    """Intersections of segment ``[p, q]`` with the hole boundary.

    Returns a list of ``(t, point, edge_index)`` sorted by the segment
    parameter ``t``.
    """
    p = as_point(p)
    q = as_point(q)
    hits: list[Hit] = []
    v = hole.vertices
    n = len(v)
    seg = q - p
    seg_len2 = float(seg @ seg)
    if seg_len2 < 1e-24:
        return []
    for i in range(n):
        x = segment_intersection_point(p, q, v[i], v[(i + 1) % n])
        if x is not None:
            t = float((x - p) @ seg / seg_len2)
            hits.append((t, x, i))
    return _merge_hits(hits)


def path_blocked_by_holes(holes: Sequence[Polygon], p, q) -> int | None:
    """Index of the first hole whose interior ``[p, q]`` crosses, or ``None``."""
    p = as_point(p)
    q = as_point(q)
    first: tuple[float, int] | None = None
    for idx, hole in enumerate(holes):
        hits = segment_hole_hits(p, q, hole)
        if len(hits) < 2:
            continue
        for (t0, x0, _), (t1, x1, _) in zip(hits, hits[1:]):
            mid = (x0 + x1) / 2.0
            if bool(hole.contains(mid, include_boundary=False)):
                if first is None or t0 < first[0]:
                    first = (t0, idx)
                break
    return None if first is None else first[1]


def detour_path_holes(holes: Sequence[Polygon], p, q, margin: float = 1.0) -> np.ndarray:
    """Detour waypoints from ``p`` to ``q``; re-scans every segment after
    each repair."""
    p = as_point(p)
    q = as_point(q)
    path = [p.copy(), q.copy()]
    for _ in range(_MAX_DETOURS):
        for seg_idx in range(len(path) - 1):
            hole_idx = path_blocked_by_holes(holes, path[seg_idx], path[seg_idx + 1])
            if hole_idx is not None:
                break
        else:
            return np.array(path)
        hits = segment_hole_hits(path[seg_idx], path[seg_idx + 1], holes[hole_idx])
        path[seg_idx + 1 : seg_idx + 1] = _detour_arc(holes[hole_idx], hits, margin)
    raise GeometryError("detour did not converge; hole layout too complex")
