"""Per-robot reference for ``repro.robots.motion.SwarmTrajectory``.

Each function applies one rule to a single robot's ``(xy, times)``
rows with scalar or per-robot numpy calls.  The trajectory's vectorised
queries must equal these bitwise.
"""

import numpy as np

from repro.geometry.vec import polyline_length


def same_bits(got, want):
    """``np.array_equal`` that also tells ``-0.0`` from ``0.0``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


def paths(traj):
    """Every robot's ``(xy, times)`` rows."""
    return [traj.path(i) for i in range(traj.robot_count)]


def right(xy, times, ts):
    """Right-sided positions: ``np.interp`` per coordinate."""
    ts = np.asarray(ts, dtype=float)
    if len(xy) == 1:
        return np.tile(xy[0], (len(ts), 1))
    return np.column_stack(
        [np.interp(ts, times, xy[:, 0]), np.interp(ts, times, xy[:, 1])]
    )


def left(xy, times, ts):
    """Left-sided positions: the clipped-alpha blend over ``times[j] < t <= times[j+1]``."""
    ts = np.asarray(ts, dtype=float)
    if len(xy) == 1:
        return np.tile(xy[0], (len(ts), 1))
    j = np.searchsorted(times, ts, side="left") - 1
    j = np.clip(j, 0, len(times) - 2)
    t0 = times[j]
    dt = times[j + 1] - t0
    safe = np.where(dt > 0, dt, 1.0)
    alpha = np.where(dt > 0, (ts - t0) / safe, (ts > t0).astype(float))
    alpha = np.clip(alpha, 0.0, 1.0)[:, None]
    return (1.0 - alpha) * xy[j] + alpha * xy[j + 1]


def position_at(xy, times, t):
    """One position: the blend over ``times[i] <= t < times[i+1]``, clamped to the ends."""
    if t <= times[0] or len(times) == 1:
        return xy[0].copy()
    if t >= times[-1]:
        return xy[-1].copy()
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(i, len(times) - 2)
    dt = times[i + 1] - times[i]
    if dt <= 0:
        return xy[i + 1].copy()
    alpha = (t - times[i]) / dt
    return (1.0 - alpha) * xy[i] + alpha * xy[i + 1]


def length_between(xy, times, t0, t1):
    """Distance travelled over ``[t0, t1]``."""
    if t1 <= t0 or len(xy) == 1:
        return 0.0
    inside = (times > t0) & (times < t1)
    pts = np.vstack(
        [
            position_at(xy, times, t0)[None, :],
            xy[inside],
            position_at(xy, times, t1)[None, :],
        ]
    )
    return polyline_length(pts)


def constant_speed(xy, t_start, t_end):
    """``(xy, times)`` traversing ``xy`` at constant speed; zero length collapses."""
    if len(xy) == 1:
        return xy, np.array([t_start])
    seg = np.diff(xy, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    total = float(seg_len.sum())
    if total <= 0:
        return xy[:1], np.array([t_start])
    frac = np.concatenate([[0.0], np.cumsum(seg_len) / total])
    return xy, t_start + frac * (t_end - t_start)


def discontinuities(xy, times):
    """Jump times: duplicated time stamps with different positions."""
    if len(times) < 2:
        return np.empty(0)
    same_t = np.abs(np.diff(times)) <= 1e-12
    seg = np.diff(xy, axis=0)
    moved = np.hypot(seg[:, 0], seg[:, 1]) > 0.0
    return np.unique(times[1:][same_t & moved])


def then(first, second):
    """One robot's joined ``(xy, times)``: the second leg minus its first
    row, unless that row starts more than ``1e-9`` after the first leg
    ends (the robot then waits at the junction)."""
    (xy1, t1), (xy2, t2) = first, second
    skip = 0 if t2[0] > t1[-1] + 1e-9 else 1
    return np.vstack([xy1, xy2[skip:]]), np.concatenate([t1, t2[skip:]])
