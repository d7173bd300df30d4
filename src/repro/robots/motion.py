"""Timed motion plans for whole swarms.

Eqn. 2 of the paper moves a robot along the straight line
``(T - t)/T * p(v) + t/T * q(v)``; detours around holes and the Lloyd
adjustment generalise this to piecewise-linear paths on one shared
clock.  A :class:`SwarmTrajectory` stores every robot's path in one
ragged array: robot ``i`` owns rows ``offsets[i]:offsets[i+1]`` of
``xy`` (waypoints) and ``times`` (non-decreasing time stamps).

A useful fact Definition 1 exploits: when two robots both move
linearly on a common sub-interval, their mutual distance is a convex
function of time, so it attains its maximum at the sub-interval's
endpoints.  A link is therefore up for a whole transition iff it is up
at every waypoint time of either of its two robots (and the interval's
ends), which :func:`~repro.network.links.links_alive_throughout` tests
link by link.  The one exception is a *discontinuity* - two waypoints
sharing a time stamp with different positions (an instantaneous jump):
a right-sided query only sees the post-jump position there, so exact
evaluators must additionally check the left-sided limit at each jump
(:attr:`SwarmTrajectory.jump_rows`,
:meth:`SwarmTrajectory.discontinuity_times`).

Every position query is one formula, Eqn. 2's blend
``a * xy[j+1] + (1 - a) * xy[j]`` on the segment at the robot's last
row ``j`` with time ``<= t`` (``< t`` from the left), with the row's
own bits wherever the row itself is exact (:meth:`SwarmTrajectory._blend`).
:meth:`~SwarmTrajectory.positions_at`,
:meth:`~SwarmTrajectory.positions_over` and
:meth:`~SwarmTrajectory.positions_of` differ only in how they find
``j``, so they agree bitwise; per-robot sums reduce each robot's run in
numpy's own 1-D order (:func:`_runs`).  DESIGN.md ("How a transition
is stored") states the rules in full.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import PlanningError
from repro.geometry.vec import as_points

__all__ = ["SwarmTrajectory"]


class SwarmTrajectory:
    """Every robot's piecewise-linear path over a common interval.

    Parameters
    ----------
    offsets : (n + 1,) int array-like
        Robot ``i`` owns rows ``offsets[i]:offsets[i+1]``; ``n >= 1``
        robots with at least one waypoint each.
    times : (N,) array-like
        Time stamps, non-decreasing within each robot's rows.
    xy : (N, 2) array-like
        Waypoints.
    t_start, t_end : float
        Common interval; individual robots may be stationary within it.
    """

    def __init__(self, offsets, times, xy, t_start: float, t_end: float) -> None:
        self.offsets, self.xy = _ragged(offsets, xy)
        self.times = np.asarray(times, dtype=float)
        if self.times.shape != (len(self.xy),):
            raise PlanningError("times must align with waypoints")
        if np.any(np.diff(self.times)[self._same_robot] < -1e-12):
            raise PlanningError("times must be non-decreasing")
        if t_end < t_start:
            raise PlanningError("t_end must be >= t_start")
        self.t_start = float(t_start)
        self.t_end = float(t_end)

    @classmethod
    def constant_speed(
        cls, offsets, xy, t_start: float, t_end: float
    ) -> "SwarmTrajectory":
        """Each robot crosses its polyline at constant speed in ``[t_start, t_end]``.

        This is the paper's motion model: every robot departs at
        ``t_start`` and arrives at ``t_end``, so robots with longer
        paths move faster.  A robot with one waypoint, or a polyline of
        zero length, keeps only its first waypoint (stationary).
        """
        offsets, xy = _ragged(offsets, xy)
        if t_end < t_start:
            raise PlanningError("t_end must be >= t_start")
        starts, counts = offsets[:-1], np.diff(offsets)
        seg = _segment_lengths(xy)
        total = np.zeros(len(counts))
        frac = np.zeros(len(xy))
        with np.errstate(divide="ignore", invalid="ignore"):
            for robots, rows in _runs(starts, counts - 1):
                block = seg[rows]
                total[robots] = block.sum(axis=1)
                frac[rows + 1] = block.cumsum(axis=1) / total[robots, None]
        moving = total > 0
        keep = np.repeat(moving, counts)
        keep[starts] = True
        kept = np.where(moving, counts, 1)
        return cls(
            np.concatenate([[0], np.cumsum(kept)]),
            (t_start + frac * (t_end - t_start))[keep],
            xy[keep],
            t_start,
            t_end,
        )

    @classmethod
    def from_paths(cls, paths, t_start: float, t_end: float) -> "SwarmTrajectory":
        """Build from per-robot ``(waypoints, times)`` pairs (the JSON layout)."""
        xys, stamps = [], []
        for waypoints, times in paths:
            xy = as_points(waypoints)
            t = np.asarray(times, dtype=float)
            if len(xy) == 0:
                raise PlanningError("a path needs at least one waypoint")
            if t.shape != (len(xy),):
                raise PlanningError("times must align with waypoints")
            xys.append(xy)
            stamps.append(t)
        if not xys:
            raise PlanningError("a swarm trajectory needs at least one path")
        offsets = np.concatenate([[0], np.cumsum([len(xy) for xy in xys])])
        return cls(offsets, np.concatenate(stamps), np.concatenate(xys), t_start, t_end)

    def path(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Robot ``i``'s ``(waypoints, times)`` rows (views, not copies)."""
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return self.xy[rows], self.times[rows]

    @property
    def robot_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @cached_property
    def row_robots(self) -> np.ndarray:
        """Owning robot of every row."""
        return np.repeat(np.arange(self.robot_count), np.diff(self.offsets))

    @cached_property
    def _same_robot(self) -> np.ndarray:
        """``(N - 1,)`` mask: rows ``r`` and ``r + 1`` belong to one robot."""
        mask = np.ones(max(len(self.times) - 1, 0), dtype=bool)
        mask[self.offsets[1:-1] - 1] = False
        return mask

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`instants` and :attr:`row_instants`, from one ``np.unique``."""
        stamps = np.concatenate([self.times, [self.t_start, self.t_end]])
        instants, rank = np.unique(stamps, return_inverse=True)
        return instants, rank[:-2]

    @property
    def instants(self) -> np.ndarray:
        """Sorted distinct time stamps of every row, ``t_start`` and ``t_end``."""
        return self._ranked[0]

    @property
    def row_instants(self) -> np.ndarray:
        """``(N,)`` int: each row's time as an index into :attr:`instants`."""
        return self._ranked[1]

    @cached_property
    def _instant_keys(self) -> np.ndarray:
        """Every row's ``robot * len(instants) + rank``, sorted.

        Robot ``i``'s keys fill positions ``offsets[i]:offsets[i+1]`` in
        any row order, so counting its keys below a bound counts its rows
        before an instant exactly as :meth:`_rows` does.
        """
        keys = self.row_robots * len(self.instants) + self.row_instants
        keys.sort()
        return keys

    @cached_property
    def jump_rows(self) -> np.ndarray:
        """Rows a robot jumps to: its previous row has (nearly) the same
        time stamp but another position."""
        same_t = np.abs(np.diff(self.times)) <= 1e-12
        moved = _segment_lengths(self.xy) > 0.0
        return np.flatnonzero(self._same_robot & same_t & moved) + 1

    def in_interval(self, times) -> np.ndarray:
        """Mask of ``times`` inside ``[t_start, t_end]``, to within ``1e-9``."""
        return (times >= self.t_start - 1e-9) & (times <= self.t_end + 1e-9)

    def _rows(self, ts: np.ndarray, side: str) -> np.ndarray:
        """``(k, n)``: each robot's last row with time ``<= t`` (right) or ``< t``.

        ``offsets[i] - 1`` where robot ``i`` has no such row.  Each row
        counts from its rank among the sorted instants on, so one
        ``bincount`` and a ``cumsum`` over the instants count them all.
        """
        n = self.robot_count
        order = np.argsort(ts, kind="stable")
        rank = np.searchsorted(
            ts[order], self.times, side="left" if side == "right" else "right"
        )
        hits = np.bincount(rank * n + self.row_robots, minlength=(len(ts) + 1) * n)
        rows = hits.reshape(-1, n)[:-1].cumsum(axis=0)
        rows += self.offsets[:-1] - 1
        return np.take(rows, np.argsort(order), axis=0)

    def _blend(self, t, j, first, last, side: str) -> np.ndarray:
        """Eqn. 2 on the segment at ``j``: ``a * xy[j+1] + (1 - a) * xy[j]``.

        The one position rule.  ``j`` is the robot's last row with time
        ``<= t`` from the right, ``< t`` from the left (``first - 1`` if
        none), and ``first``/``last`` are the robot's first and last
        rows, all broadcast against ``t``.  The row itself is exact
        before the first row, at or past the last and, from the right,
        on a row's own time: there ``j + 1`` folds to ``j`` (clamped in
        place) and ``a = 0``, so the blend returns the row's own bits,
        ``-0.0`` included.  Otherwise ``a = (t - t_j) / (t_{j+1} - t_j)``
        (0 on a segment of no positive duration).
        """
        exact = j < first
        np.maximum(j, first, out=j)
        exact |= j == last
        tj = np.take(self.times, j)
        if side == "right":
            exact |= tj == t
        nxt = j + ~exact
        dt = np.take(self.times, nxt)
        dt -= tj
        flat = dt <= 0
        dt[flat] = 1.0
        a = np.subtract(t, tj, out=tj)
        a[flat] = 0.0
        a /= dt
        b = np.subtract(1.0, a, out=dt)
        # np.take gathers whole rows far faster than fancy indexing, and
        # per-column products beat numpy's broadcast over a trailing 2.
        out = np.take(self.xy, nxt, axis=0)
        prev = np.take(self.xy, j, axis=0)
        out[..., 0] *= a
        out[..., 1] *= a
        prev[..., 0] *= b
        prev[..., 1] *= b
        out += prev
        return out

    def _positions(self, ts: np.ndarray, side: str) -> np.ndarray:
        """The ``(k, n, 2)`` table of :meth:`positions_over` at ``(k,)``
        times; :meth:`positions_at` reads it too, so neither public
        query calls the other."""
        j = self._rows(ts, side)
        return self._blend(ts[:, None], j, self.offsets[:-1], self.offsets[1:] - 1, side)

    def positions_at(self, t: float) -> np.ndarray:
        """All robot positions at time ``t`` as an ``(n, 2)`` array: the
        right limit, ``positions_over([t])[0]`` bit for bit."""
        return self._positions(np.array([float(t)]), "right")[0]

    @property
    def start_positions(self) -> np.ndarray:
        return self.positions_at(self.t_start)

    @property
    def end_positions(self) -> np.ndarray:
        return self.positions_at(self.t_end)

    def path_lengths(self) -> np.ndarray:
        """Per-robot travelled distance ``d_i``."""
        return _polyline_lengths(self.offsets, self.xy)

    def distances_between(self, t0: float, t1) -> np.ndarray:
        """Per-robot distance travelled over the window ``[t0, t1]``.

        ``t1`` is one instant or a per-robot ``(n,)`` array.  Exact for
        the piecewise-linear motion model: each robot's polyline through
        its position at ``t0``, every waypoint strictly inside the
        window and its position at ``t1``; zero when ``t1 <= t0``.
        """
        n = self.robot_count
        t1 = np.broadcast_to(np.asarray(t1, dtype=float), (n,))
        r = self.row_robots
        inside = (self.times > t0) & (self.times < t1[r])
        ri = r[inside]
        count = np.bincount(ri, minlength=n)
        offsets = np.concatenate([[0], np.cumsum(count + 2)])
        pts = np.empty((offsets[-1], 2))
        pts[offsets[:-1]] = self.positions_at(t0)
        pts[offsets[1:] - 1] = self.positions_of(np.arange(n), t1)
        # Robot i's inside rows, in order, right after its t0 point.
        earlier = np.cumsum(count) - count
        pts[offsets[ri] + 1 + np.arange(len(ri)) - earlier[ri]] = self.xy[inside]
        return np.where(t1 > t0, _polyline_lengths(offsets, pts), 0.0)

    def total_distance(self) -> float:
        """The paper's ``D = sum_i d_i``."""
        return float(self.path_lengths().sum())

    def critical_times(self) -> np.ndarray:
        """Sorted union of every waypoint time (plus the interval ends)."""
        arr = np.unique(np.concatenate([[self.t_start, self.t_end], self.times]))
        return arr[self.in_interval(arr)]

    def sample_times(self, resolution: int = 32) -> np.ndarray:
        """Evaluation times: a uniform grid merged with the critical times."""
        uniform = np.linspace(self.t_start, self.t_end, max(2, resolution))
        merged = np.union1d(uniform, self.critical_times())
        return merged

    def discontinuity_times(self) -> np.ndarray:
        """Times where some robot's position jumps, clipped to the interval.

        A jump is two consecutive waypoints of one robot whose time
        stamps (nearly) coincide but whose positions differ: an
        instantaneous position change.  Interval sampling is blind to
        the pre-jump position at such a time, so evaluators must check
        both one-sided limits there.
        """
        arr = np.unique(self.times[self.jump_rows])
        return arr[self.in_interval(arr)]

    def positions_over(self, times, side: str = "right") -> np.ndarray:
        """Positions for every robot at every time: shape ``(k, n, 2)``.

        ``side`` selects the one-sided limit taken at a discontinuity:
        ``"right"`` (default) returns the post-jump position,
        ``"left"`` the position approached from earlier times.  At
        continuous instants both sides agree.
        """
        _check_side(side)
        return self._positions(np.asarray(times, dtype=float), side)

    def positions_of(self, robots, times, side: str = "right") -> np.ndarray:
        """Robot ``robots[k]`` at ``times[k]``, the two broadcast together.

        The per-(robot, time) form of :meth:`positions_over`, bitwise
        equal to its entry at that robot and time on either side: shape
        ``broadcast(robots, times).shape + (2,)``, so ``(q,)`` robots
        against ``(k, 1)`` times give a ``(k, q, 2)`` table of those
        robots only.  One ``searchsorted`` over :attr:`instants` counts
        the instants at or before each time (before it, from the left),
        and one over the integer keys ``robot * len(instants) + rank``
        finds the robot's row, so a query costs ``log N``, not a pass
        over every robot.
        """
        _check_side(side)
        robots = np.asarray(robots, dtype=np.int64)
        t = np.asarray(times, dtype=float)
        # Rows ranked below this bound are at or before t (right) or before it.
        bound = np.searchsorted(self.instants, t, side=side)
        j = np.searchsorted(self._instant_keys, robots * len(self.instants) + bound) - 1
        return self._blend(t, j, self.offsets[robots], self.offsets[robots + 1] - 1, side)

    def then(self, other: "SwarmTrajectory") -> "SwarmTrajectory":
        """Concatenate two trajectories robot-by-robot.

        Each robot's second-leg rows follow its first-leg rows.  The
        second leg's first waypoint (the junction) is dropped when its
        time equals the first leg's last time, to within ``1e-9``;
        otherwise it is kept, so the robot waits at the junction until
        the second leg starts.  A robot whose first leg collapsed to one
        waypoint at the first leg's start time therefore waits there,
        rather than heading for its second leg's next waypoint from
        that time on.

        Raises
        ------
        PlanningError
            If the robot counts differ, or some robot's junction points
            or time stamps do not line up.
        """
        n = self.robot_count
        if other.robot_count != n:
            raise PlanningError("trajectories have different robot counts")
        ends, starts = self.offsets[1:] - 1, other.offsets[:-1]
        if not np.allclose(self.xy[ends], other.xy[starts], atol=1e-6):
            raise PlanningError("paths do not share a junction point")
        if np.any(other.times[starts] < self.times[ends] - 1e-9):
            raise PlanningError("second path starts before the first ends")
        keep = np.ones(len(other.times), dtype=bool)
        keep[starts] = other.times[starts] > self.times[ends] + 1e-9
        # Junction rows dropped for the robots before each robot.
        dropped = np.concatenate([[0], np.cumsum(~keep[starts])])
        r1, r2 = self.row_robots, other.row_robots[keep]
        dest1 = np.arange(len(self.times)) + other.offsets[r1] - dropped[r1]
        dest2 = np.flatnonzero(keep) + self.offsets[r2 + 1] - dropped[r2 + 1]
        size = len(self.times) + len(r2)
        times, xy = np.empty(size), np.empty((size, 2))
        times[dest1], times[dest2] = self.times, other.times[keep]
        xy[dest1], xy[dest2] = self.xy, other.xy[keep]
        offsets = self.offsets + other.offsets - dropped
        return SwarmTrajectory(offsets, times, xy, self.t_start, other.t_end)


def _check_side(side: str) -> None:
    if side not in ("right", "left"):
        raise PlanningError(f"side must be 'left' or 'right', got {side!r}")


def _ragged(offsets, xy) -> tuple[np.ndarray, np.ndarray]:
    """Coerce and check a ragged layout: >= 1 robot, >= 1 row each."""
    offsets = np.asarray(offsets, dtype=np.int64)
    xy = as_points(xy)
    if offsets.ndim != 1 or len(offsets) < 2:
        raise PlanningError("a swarm trajectory needs at least one path")
    if np.any(np.diff(offsets) < 1):
        raise PlanningError("a path needs at least one waypoint")
    if offsets[0] != 0 or offsets[-1] != len(xy):
        raise PlanningError("offsets must run from 0 to the waypoint count")
    return offsets, xy


def _segment_lengths(xy: np.ndarray) -> np.ndarray:
    """``hypot`` of every consecutive row pair, robot boundaries included."""
    d = np.diff(xy, axis=0)
    return np.hypot(d[:, 0], d[:, 1])


def _runs(starts: np.ndarray, counts: np.ndarray):
    """Index blocks for per-robot reductions, robots batched by run length.

    Yields ``(robots, rows)``: ``rows`` is a ``(g, L)`` index array, one
    row ``starts[i] + arange(L)`` per robot ``i`` whose run has ``L > 0``
    values.  Reducing ``values[rows]`` along axis 1 gives each robot
    numpy's order for a lone 1-D run (pairwise ``sum``, sequential
    ``cumsum``), so results equal per-robot calls bitwise;
    ``np.add.reduceat`` does not.
    """
    for length in np.unique(counts[counts > 0]):
        robots = np.flatnonzero(counts == length)
        yield robots, starts[robots, None] + np.arange(length)


def _polyline_lengths(offsets: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Length of every robot's open polyline, each summed like ``polyline_length``."""
    seg = _segment_lengths(xy)
    out = np.zeros(len(offsets) - 1)
    for robots, rows in _runs(offsets[:-1], np.diff(offsets) - 1):
        out[robots] = seg[rows].sum(axis=1)
    return out
