"""Per-robot reference for ``repro.robots.motion.SwarmTrajectory``.

Each function applies one rule to a single robot's ``(xy, times)``
rows with scalar or per-robot numpy calls.  The trajectory's vectorised
queries must equal these bitwise.  Positions follow :func:`blend`, the
one position rule; ``np.interp`` stays out of it and is compared in
the tests only to within a stated rounding tolerance.
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


def blend(xy, times, t, side="right"):
    """One position: Eqn. 2's blend on the segment at the last row ``j``
    with time ``<= t`` (right) or ``< t`` (left), per coordinate.

    The row itself, bits and all, before the first row, at or past the
    last and, from the right, on a row's own time.
    """
    j = int(np.searchsorted(times, t, side=side)) - 1
    if j < 0:
        return xy[0].copy()
    if j == len(times) - 1 or (side == "right" and times[j] == t):
        return xy[j].copy()
    a = (t - times[j]) / (times[j + 1] - times[j])
    return a * xy[j + 1] + (1.0 - a) * xy[j]


def right(xy, times, ts):
    """Right-sided positions at every one of ``ts``."""
    return np.array([blend(xy, times, t) for t in ts]).reshape(-1, 2)


def left(xy, times, ts):
    """Left-sided positions at every one of ``ts``."""
    return np.array([blend(xy, times, t, "left") for t in ts]).reshape(-1, 2)


def length_between(xy, times, t0, t1):
    """Distance travelled over ``[t0, t1]``."""
    if t1 <= t0 or len(xy) == 1:
        return 0.0
    inside = (times > t0) & (times < t1)
    pts = np.vstack(
        [
            right(xy, times, [t0]),
            xy[inside],
            right(xy, times, [t1]),
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
