"""One flat edge table per polygon or Field of Interest.

Every boundary loop - a polygon, or an FoI's outer boundary followed by
its holes - goes into the same flat arrays: edge ``e`` runs from
``start[e]`` to ``end[e]`` and belongs to loop ``owner[e]``, and loop
``o`` owns the edges ``offset[o]:offset[o + 1]`` in vertex order.  This
is the only place the library flattens polygon edges; containment,
boundary distances, nearest-boundary projection and hole-detour
intersection all read this table.

Every query works on (point, edge) pairs in chunks of at most
:data:`_BLOCK_CELLS`, so temporaries stay small at swarm scale, and each
pair repeats, element by element, the floating-point expression of the
scalar per-edge loop it replaced, so the results are bitwise those of
that loop (the loops are kept as test oracles):

* **Parity.**  The even-odd crossing test only involves the edges whose
  half-open y-span ``[min, max)`` holds the point.  With the points
  sorted by y, those are one contiguous slice per edge, so only the
  crossing pairs are visited; parity per loop is a crossing count
  modulo 2.
* **Boundary band.**  "Within ``tol`` of the boundary" can only flip a
  point the parity calls outside, so the band is evaluated for those
  points only, and only for pairs inside the edge's bounding box grown
  by ``2 * tol`` plus a few ulps of the coordinates.  That margin is
  conservative: a computed distance ``<= tol`` cannot come from a point
  farther than ``tol`` (plus rounding) from the edge's bounding box.
* **Projection.**  The nearest point of one loop's boundary keeps the
  scalar rules: the first edge with the least distance wins, an edge
  shorter than ``sqrt(_EPS)`` projects to its nearer endpoint, and dot
  products go through stacked ``np.matmul``, which computes each one as
  the scalar ``x @ d`` does (``(x * d).sum(-1)`` rounds differently).
* **Crossings.**  One proper-crossing kernel tests edge pairs a block
  at a time: the non-adjacent pairs of one loop (is the polygon
  simple?) or the pairs of different loops (does a hole cross another
  hole or the outer boundary?).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.segment import _EPS
from repro.geometry.vec import expand_ragged

__all__ = ["EdgeTable"]

#: (point x edge) pairs handled per vectorised chunk.
_BLOCK_CELLS = 1 << 16

# Bounding boxes for the band prefilter grow by 2 * tol plus this many
# ulps of the table's largest coordinate, which covers the rounding of
# the projection and of the box bounds themselves.
_MARGIN_ULPS = 8


def _interval_pairs(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every ``(e, j)`` with ``lo[e] <= j < hi[e]``, ``_BLOCK_CELLS`` at a time."""
    counts = hi - lo
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for k0 in range(0, total, _BLOCK_CELLS):
        k = np.arange(k0, min(k0 + _BLOCK_CELLS, total))
        e = np.searchsorted(ends, k, side="right")
        yield e, lo[e] + k - (ends[e] - counts[e])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a[i] @ b[i]``, rounded as the scalar ``@`` rounds."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class EdgeTable:
    """Every edge of a sequence of polygons as flat arrays.

    Parameters
    ----------
    polygons : sequence of Polygon
        The loops, in owner order.  Each loop's boundary tolerance is
        ``1e-9 * max(1, perimeter)``, as :meth:`Polygon.contains` uses.
    """

    def __init__(self, polygons: Sequence) -> None:
        self.polygons = tuple(polygons)
        loops = [p.vertices for p in self.polygons] or [np.zeros((0, 2))]
        sizes = [len(p) for p in self.polygons]
        self.start = np.concatenate(loops)
        self.end = np.concatenate([np.roll(v, -1, axis=0) for v in loops])
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.offset = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        self.dx = self.end[:, 0] - self.start[:, 0]
        self.dy = self.end[:, 1] - self.start[:, 1]
        self.tol = np.array([1e-9 * max(1.0, p.perimeter) for p in self.polygons])

    def __len__(self) -> int:
        return len(self.owner)

    @property
    def loops(self) -> int:
        return len(self.polygons)

    @cached_property
    def l1(self) -> np.ndarray:
        """Per-edge ``|dx| + |dy|``."""
        return np.abs(self.dx) + np.abs(self.dy)

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------

    def parity(self, points: np.ndarray) -> np.ndarray:
        """``(m, loops)`` even-odd verdicts: point ``i`` inside loop ``o``."""
        m, k = len(points), self.loops
        if m == 0 or len(self) == 0:
            return np.zeros((m, k), dtype=bool)
        x, y = points[:, 0], points[:, 1]
        order = np.argsort(y, kind="stable")
        ys = y[order]
        sy, ey = self.start[:, 1], self.end[:, 1]
        # (sy > y) != (ey > y)  <=>  min(sy, ey) <= y < max(sy, ey)
        lo = np.searchsorted(ys, np.minimum(sy, ey), side="left")
        hi = np.searchsorted(ys, np.maximum(sy, ey), side="left")
        counts = np.zeros(m * k, dtype=np.int64)
        for e, j in _interval_pairs(lo, hi):
            i = order[j]
            xi, xj = self.end[e, 0], self.start[e, 0]
            x_int = (xj - xi) * (y[i] - ey[e]) / (sy[e] - ey[e]) + xi
            hit = x[i] < x_int
            counts += np.bincount((i * k + self.owner[e])[hit], minlength=m * k)
        return (counts & 1).astype(bool).reshape(m, k)

    def inside(self, points: np.ndarray, band: Sequence[int] = ()) -> np.ndarray:
        """``(m, loops)`` containment per loop.

        Loops listed in ``band`` also count points within their
        tolerance of the boundary as inside; the band is evaluated only
        where the parity says outside, the only verdicts it can flip.
        """
        verdict = self.parity(points)
        if len(band) and len(points):
            need = np.zeros_like(verdict)
            need[:, list(band)] = ~verdict[:, list(band)]
            verdict |= self._band(points, need)
        return verdict

    def _band(self, points: np.ndarray, need: np.ndarray) -> np.ndarray:
        """``(m, loops)``: where ``need``, whether the point lies within
        the loop's tolerance of its boundary."""
        out = np.zeros_like(need)
        rows = np.flatnonzero(need.any(axis=1))
        if len(rows) == 0 or len(self) == 0:
            return out
        q = points[rows]
        order = np.argsort(q[:, 0], kind="stable")
        xs = q[order, 0]
        scale = float(np.abs(self.start).max())
        margin = 2.0 * self.tol[self.owner] + _MARGIN_ULPS * np.finfo(float).eps * scale
        ex0 = np.minimum(self.start[:, 0], self.end[:, 0]) - margin
        ex1 = np.maximum(self.start[:, 0], self.end[:, 0]) + margin
        ey0 = np.minimum(self.start[:, 1], self.end[:, 1]) - margin
        ey1 = np.maximum(self.start[:, 1], self.end[:, 1]) + margin
        lo = np.searchsorted(xs, ex0, side="left")
        hi = np.searchsorted(xs, ex1, side="right")
        idle = ~need.any(axis=0)[self.owner]
        hi[idle] = lo[idle]
        for e, j in _interval_pairs(lo, hi):
            r = order[j]
            o = self.owner[e]
            y = q[r, 1]
            keep = need[rows[r], o] & (y >= ey0[e]) & (y <= ey1[e])
            r, e, o = r[keep], e[keep], o[keep]
            hit = self.distances_to(q[r], e) <= self.tol[o]
            out[rows[r[hit]], o[hit]] = True
        return out

    # ------------------------------------------------------------------
    # Distances and projection
    # ------------------------------------------------------------------

    def distances_to(self, points: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Distance from ``points[i]`` to edge ``e[i]``, pair by pair, with
        the expressions of :func:`~repro.geometry.segment.points_segments_distance`."""
        ax, ay = self.start[e, 0], self.start[e, 1]
        dx, dy = self.dx[e], self.dy[e]
        denom = dx * dx + dy * dy
        safe = np.where(denom < _EPS, 1.0, denom)
        t = ((points[:, 0] - ax) * dx + (points[:, 1] - ay) * dy) / safe
        t = np.where(denom < _EPS, 0.0, np.clip(t, 0.0, 1.0))
        return np.hypot(points[:, 0] - (ax + t * dx), points[:, 1] - (ay + t * dy))

    def min_distances(self, points: np.ndarray, first_loop: int = 0) -> np.ndarray:
        """Distance from each point to the nearest edge of loops
        ``first_loop`` onwards (``inf`` when there is none)."""
        m = len(points)
        first = int(self.offset[first_loop])
        edges = len(self) - first
        if edges <= 0:
            return np.full(m, np.inf)
        out = np.empty(m)
        rows = max(1, _BLOCK_CELLS // edges)
        cols = np.arange(first, len(self))
        for lo in range(0, m, rows):
            block = points[lo : lo + rows]
            e = np.tile(cols, len(block))
            d = self.distances_to(np.repeat(block, edges, axis=0), e)
            out[lo : lo + len(block)] = d.reshape(len(block), edges).min(axis=1)
        return out

    @cached_property
    def _dd(self) -> np.ndarray:
        """Per-edge ``d @ d`` as the scalar projection computes it."""
        d = self.end - self.start
        return _dot(d, d)

    def project(self, points: np.ndarray, loop: np.ndarray) -> np.ndarray:
        """Nearest point of loop ``loop[i]``'s boundary to ``points[i]``.

        The first edge (in vertex order) at the least distance wins, as
        in :func:`~repro.geometry.segment.project_point_on_segment` looped
        over the edges with a strict ``<``.
        """
        m = len(points)
        out = np.empty((m, 2))
        sizes = np.diff(self.offset)
        rows = max(1, _BLOCK_CELLS // max(1, int(sizes.max(initial=1))))
        for lo in range(0, m, rows):
            p_blk, o_blk = points[lo : lo + rows], loop[lo : lo + rows]
            counts = sizes[o_blk]
            e = expand_ragged(self.offset[o_blk], counts)
            p = np.repeat(p_blk, counts, axis=0)
            a, b = self.start[e], self.end[e]
            d = b - a
            denom = self._dd[e]
            short = denom < _EPS
            pa, pb = p - a, p - b
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.clip(_dot(pa, d) / denom, 0.0, 1.0)
            near = np.where((_dot(pb, pb) < _dot(pa, pa))[:, None], b, a)
            q = np.where(short[:, None], near, a + t[:, None] * d)
            dist = np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])
            starts = np.cumsum(counts) - counts
            least = np.minimum.reduceat(dist, starts)
            pos = np.where(dist == np.repeat(least, counts), np.arange(len(e)), len(e))
            out[lo : lo + len(p_blk)] = q[np.minimum.reduceat(pos, starts)]
        return out

    # ------------------------------------------------------------------
    # Simplicity and crossings
    # ------------------------------------------------------------------

    def self_crossing(self, loop: int = 0) -> bool:
        """Whether two non-adjacent edges of ``loop`` properly cross."""
        lo, hi = int(self.offset[loop]), int(self.offset[loop + 1])

        def allowed(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            return (j > i + 1) & ~((i == lo) & (j == hi - 1))

        return self._first_crossing(lo, hi, allowed) is not None

    def crossing_loops(self) -> tuple[int, int] | None:
        """The first two loops with properly crossing edges, or ``None``.

        Every pair of edges of *different* loops is tested; the pairs
        run in edge order, so the result is the owners of the first
        crossing pair ``(i, j)``, ``i < j``.
        """
        ends = self.offset[1:][self.owner]

        def allowed(i: np.ndarray, j: np.ndarray) -> np.ndarray:
            return j >= ends[i]

        hit = self._first_crossing(0, len(self), allowed)
        return None if hit is None else (int(self.owner[hit[0]]), int(self.owner[hit[1]]))

    def _first_crossing(self, lo: int, hi: int, allowed) -> tuple[int, int] | None:
        """First edge pair ``(i, j)`` in ``[lo, hi)`` that ``allowed(i, j)``
        admits and that properly crosses, in row-major order.

        Applies :func:`~repro.geometry.segment.segments_properly_cross`
        (with :func:`~repro.geometry.segment.orientation`'s tolerance)
        to every admitted pair, ``_BLOCK_CELLS`` pairs at a time.
        """
        n = hi - lo
        rows = max(1, _BLOCK_CELLS // max(1, n))
        j = np.arange(lo, hi)
        for i0 in range(lo, hi, rows):
            i = np.arange(i0, min(i0 + rows, hi))[:, None]
            ii, jj = np.nonzero(allowed(i, j[None, :]))
            ii, jj = ii + i0, jj + lo
            p1, p2, q1, q2 = self.start[ii], self.end[ii], self.start[jj], self.end[jj]
            o1 = _orientations(p1, p2, q1)
            o2 = _orientations(p1, p2, q2)
            o3 = _orientations(q1, q2, p1)
            o4 = _orientations(q1, q2, p2)
            cross = (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0) & (o1 != o2) & (o3 != o4)
            if cross.any():
                k = int(np.argmax(cross))
                return int(ii[k]), int(jj[k])
        return None


def _orientations(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`~repro.geometry.segment.orientation` row by row."""
    bax, bay = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    cax, cay = c[:, 0] - a[:, 0], c[:, 1] - a[:, 1]
    val = bax * cay - bay * cax
    scale = np.maximum(np.maximum(1.0, np.abs(bax) + np.abs(bay)), np.abs(cax) + np.abs(cay))
    return np.where(np.abs(val) <= _EPS * scale * scale, 0, np.sign(val)).astype(int)
