"""Validation of generated FoIs: simple, positive area, deployable.

Every zoo shape (and, through :func:`repro.experiments.generator.
random_foi`, every fuzz shape) passes through :func:`validate_foi`
before it reaches the planner, so a campaign failure is always a
planner/metrics counterexample - never a degenerate polygon slipping
through.  The hole-clearance helpers live here too: both the zoo and
the blob fuzzer must keep holes away from the outer boundary or the
free region pinches into near-disconnection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError, ScenarioError
from repro.foi.region import FieldOfInterest
from repro.geometry.polygon import Polygon
from repro.robots.robot import RadioSpec
from repro.robots.swarm import Swarm

__all__ = [
    "ValidationReport",
    "hole_clearance",
    "shrink_hole_to_clearance",
    "validate_foi",
    "assert_deployable",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on one region.

    Attributes
    ----------
    checks : dict
        ``check name -> bool`` for every check run.
    detail : str
        Human-readable note on the first failure (empty when ok).
    """

    checks: dict[str, bool]
    detail: str = ""

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def failures(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def hole_clearance(outer: Polygon, hole: Polygon) -> float:
    """Smallest distance from a hole vertex to the outer boundary.

    Returns ``-inf`` when any hole vertex escapes the outer polygon
    (negative clearance - the hole pinches through the boundary).
    """
    if not bool(np.all(outer.contains(hole.vertices))):
        return float("-inf")
    return float(outer.boundary_distances(hole.vertices).min())


def shrink_hole_to_clearance(
    outer: Polygon,
    hole: Polygon,
    clearance: float,
    min_scale: float = 0.3,
) -> Polygon | None:
    """Shrink ``hole`` about its centroid until it clears the boundary.

    Returns the hole unchanged when it already satisfies ``clearance``,
    a scaled copy when a factor in ``[min_scale, 1)`` suffices, and
    ``None`` when even the smallest permitted copy still violates the
    clearance (the caller should reject the draw rather than emit a
    pinched region).
    """
    if clearance < 0:
        raise ScenarioError(f"hole clearance must be >= 0, got {clearance}")
    if hole_clearance(outer, hole) >= clearance:
        return hole
    lo, hi = min_scale, 1.0
    best: Polygon | None = None
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        candidate = hole.scaled(mid, about=hole.centroid)
        if hole_clearance(outer, candidate) >= clearance:
            best, lo = candidate, mid
        else:
            hi = mid
    return best


def validate_foi(
    foi: FieldOfInterest,
    min_clearance: float = 0.0,
    max_hole_fraction: float = 0.6,
) -> ValidationReport:
    """Structural validation: simple boundaries, positive free area,
    contained and mutually disjoint holes with ``min_clearance``.

    Deployability is a separate, costlier check
    (:func:`assert_deployable`): structural validity is a property of
    the region alone, deployability also depends on swarm size and
    radio range.
    """
    checks: dict[str, bool] = {}
    detail = ""
    checks["outer_simple"] = foi.outer.is_simple()
    checks["holes_simple"] = all(h.is_simple() for h in foi.holes)
    checks["free_area_positive"] = foi.area > 0
    hole_area = sum(h.area for h in foi.holes)
    checks["hole_fraction_bounded"] = hole_area <= max_hole_fraction * foi.outer.area
    clear_ok = True
    for i, hole in enumerate(foi.holes):
        c = hole_clearance(foi.outer, hole)
        if c < min_clearance:
            clear_ok = False
            detail = (
                f"hole {i} clearance {c:.4g} below required {min_clearance:.4g}"
            )
            break
    checks["hole_clearance"] = clear_ok
    checks["holes_disjoint"] = True  # FieldOfInterest rejects nested or crossing holes
    if not detail and not all(checks.values()):
        detail = f"failed: {[k for k, v in checks.items() if not v]}"
    return ValidationReport(checks=checks, detail=detail)


def assert_deployable(
    foi: FieldOfInterest,
    robot_count: int = 25,
    comm_range: float = 80.0,
    spacing_factor: float = 0.6,
) -> Swarm:
    """Prove the region is lattice-deployable by deploying into it.

    Scales a copy of the region so ``robot_count`` robots fit at
    ``spacing_factor * comm_range`` lattice pitch (the experiments'
    sizing rule), then runs the real lattice deployment.  Returns the
    deployed swarm; raises :class:`ScenarioError` when the deployment
    fails or comes out disconnected.
    """
    radio = RadioSpec.from_comm_range(comm_range)
    target_spacing = spacing_factor * comm_range
    area = float(np.sqrt(3.0) / 2.0 * robot_count * target_spacing**2)
    scaled = foi.scaled_to_area(area)
    try:
        swarm = Swarm.deploy_lattice(scaled, robot_count, radio)
    except GeometryError as exc:
        raise ScenarioError(
            f"{foi.name}: not lattice-deployable at {robot_count} robots "
            f"({exc})"
        ) from exc
    if not swarm.is_connected():
        raise ScenarioError(
            f"{foi.name}: lattice deployment starts disconnected"
        )
    return swarm
