"""Coverage quality measures.

Used by tests and the experiment harness to verify that the pipeline's
final deployments actually cover the target FoI, and by the Fig. 6
experiment to show the density-aware deployment concentrating robots
near the hot region.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points, nearest_index

__all__ = [
    "coverage_fraction",
    "density_concentration",
    "kershner_bound",
    "nearest_robot_distances",
]


def kershner_bound(area: float, sensing_range: float) -> int:
    """Minimum disks of radius ``sensing_range`` covering ``area``.

    Kershner's theorem (the paper's ref. [11]): covering a bounded
    region of area ``A`` with disks of radius ``r`` needs at least
    ``2A / (3 * sqrt(3) * r^2)`` disks, attained asymptotically by the
    triangular lattice.  Scenario builders use this to check a swarm
    can actually cover its FoI.
    """
    if area <= 0 or sensing_range <= 0:
        raise CoverageError("area and sensing range must be positive")
    return int(np.ceil(2.0 * area / (3.0 * np.sqrt(3.0) * sensing_range**2)))


def coverage_fraction(
    foi: FieldOfInterest,
    positions,
    sensing_range: float,
    grid_target: int = 4000,
) -> float:
    """Fraction of the FoI's free area within sensing range of a robot.

    Monte-Carlo-free: evaluated on a deterministic grid of roughly
    ``grid_target`` points.
    """
    if sensing_range <= 0:
        raise CoverageError("sensing range must be positive")
    pts = as_points(positions)
    spacing = float(np.sqrt(foi.area / grid_target))
    grid = foi.grid_points(spacing)
    if len(grid) == 0:
        raise CoverageError("FoI grid came out empty; lower grid_target")
    covered = _nearest_d2(grid, pts) <= sensing_range * sensing_range
    return float(covered.mean())


def nearest_robot_distances(foi: FieldOfInterest, positions, grid_target: int = 4000) -> np.ndarray:
    """Distance from each FoI grid point to its nearest robot."""
    pts = as_points(positions)
    spacing = float(np.sqrt(foi.area / grid_target))
    grid = foi.grid_points(spacing)
    return np.sqrt(_nearest_d2(grid, pts))


def _nearest_d2(grid: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Squared distance from each grid point to its nearest robot."""
    diff = grid - pts[nearest_index(grid, pts)]
    return diff[:, 0] ** 2 + diff[:, 1] ** 2


def density_concentration(
    positions, hot_region_test, total_test=None
) -> float:
    """Fraction of robots inside a "hot" sub-region.

    Parameters
    ----------
    positions : (n, 2) array-like
    hot_region_test : callable((n, 2) array) -> (n,) bool
        Membership test of the hot region (e.g. within distance ``d``
        of a hole).
    total_test : optional callable
        Restrict the denominator to robots passing this test.
    """
    pts = as_points(positions)
    if total_test is not None:
        pts = pts[np.asarray(total_test(pts), dtype=bool)]
    if len(pts) == 0:
        raise CoverageError("no robots to measure concentration over")
    hot = np.asarray(hot_region_test(pts), dtype=bool)
    return float(hot.mean())
