"""Lloyd's algorithm on a discretised FoI (paper Sec. III-C).

The minor-adjustment phase moves each robot to the (density-weighted)
centroid of its Voronoi region, iterating until no robot moves.  To
handle concave boundaries and holes uniformly, the FoI is discretised
into a dense point grid; a robot's Voronoi region is the set of grid
points nearest to it, and its centroid is their weighted mean.  The
paper's hole rules fall out naturally: a centroid that lands in a hole
is replaced by the nearest grid point (Sec. III-D3), and the
connectivity-safe variant halves every step while a move would
disconnect the network (Sec. III-D1, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CoverageError
from repro.coverage.density import DensityFunction, uniform_density, validate_density
from repro.foi.region import FieldOfInterest
from repro.geometry.vec import as_points, nearest_index
from repro.network.udg import UnitDiskGraph
from repro.obs import span

__all__ = ["LloydResult", "LloydConfig", "lloyd_iteration", "run_lloyd"]


@dataclass(frozen=True)
class LloydConfig:
    """Tuning knobs for the Lloyd iteration.

    Attributes
    ----------
    grid_target : int
        Approximate number of discretisation points.
    max_iterations : int
    tolerance_fraction : float
        Convergence: stop when the largest move falls below this
        fraction of the grid pitch.
    connectivity_safe : bool
        Enforce the step-halving rule so the network never disconnects
        during the adjustment.
    max_halvings : int
        Give up moving (this iteration) after this many halvings.
    """

    grid_target: int = 2500
    max_iterations: int = 60
    tolerance_fraction: float = 0.05
    connectivity_safe: bool = True
    max_halvings: int = 6


@dataclass(frozen=True)
class LloydResult:
    """Outcome of a Lloyd run.

    Attributes
    ----------
    positions : (n, 2) ndarray
        Final robot positions.
    snapshots : list of (n, 2) ndarray
        Positions after every iteration (first entry is the start).
    iterations : int
    converged : bool
    total_movement : float
        Sum over robots of per-iteration step lengths (the adjustment
        cost added to the transition's moving distance).
    """

    positions: np.ndarray
    snapshots: list[np.ndarray]
    iterations: int
    converged: bool
    total_movement: float


def _assign_centroids(
    sites: np.ndarray,
    grid: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted centroid of each site's nearest-grid-point region.

    Sites whose region is empty (no grid point is nearest to them,
    e.g. robots still outside the FoI) get the nearest grid point as
    centroid, pulling them into the region.
    """
    owner = nearest_index(grid, sites)
    n = len(sites)
    w_sum = np.bincount(owner, weights=weights, minlength=n)
    cx = np.bincount(owner, weights=weights * grid[:, 0], minlength=n)
    cy = np.bincount(owner, weights=weights * grid[:, 1], minlength=n)
    centroids = sites.copy()
    nonempty = w_sum > 0
    centroids[nonempty, 0] = cx[nonempty] / w_sum[nonempty]
    centroids[nonempty, 1] = cy[nonempty] / w_sum[nonempty]
    _snap_to_grid(centroids, ~nonempty, grid)
    return centroids


def _snap_to_grid(points: np.ndarray, rows: np.ndarray, grid: np.ndarray) -> None:
    """Replace ``points[rows]`` (a boolean mask) by their nearest grid points."""
    if rows.any():
        points[rows] = grid[nearest_index(points[rows], grid)]


def lloyd_iteration(
    sites: np.ndarray,
    foi: FieldOfInterest,
    grid: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """One Lloyd step: per-site density-weighted centroid, hole-corrected."""
    centroids = _assign_centroids(sites, grid, weights)
    # Hole rule: a centroid inside a hole (or outside the outer
    # boundary, possible for weighted regions hugging a concavity)
    # falls back to the nearest grid point.
    _snap_to_grid(centroids, ~foi.contains(centroids), grid)
    return centroids


def run_lloyd(
    start_positions,
    foi: FieldOfInterest,
    comm_range: float | None = None,
    density: DensityFunction | None = None,
    config: LloydConfig | None = None,
) -> LloydResult:
    """Run Lloyd's algorithm from ``start_positions`` inside ``foi``.

    Parameters
    ----------
    start_positions : (n, 2) array-like
    foi : FieldOfInterest
    comm_range : float, optional
        Required when ``config.connectivity_safe`` (the default); used
        for the disconnect check.
    density : DensityFunction, optional
        Defaults to uniform.
    config : LloydConfig, optional

    Returns
    -------
    LloydResult
    """
    cfg = config or LloydConfig()
    sites = as_points(start_positions).copy()
    if len(sites) == 0:
        raise CoverageError("need at least one robot")
    if cfg.connectivity_safe and comm_range is None:
        raise CoverageError("comm_range required for connectivity-safe Lloyd")
    dens = density or uniform_density()
    spacing = float(np.sqrt(foi.area / cfg.grid_target))
    grid = foi.grid_points(spacing)
    if len(grid) < len(sites):
        raise CoverageError(
            f"discretisation too coarse: {len(grid)} grid points for "
            f"{len(sites)} robots"
        )
    weights = validate_density(dens, grid)
    tol = cfg.tolerance_fraction * spacing

    snapshots = [sites.copy()]
    total_movement = 0.0
    converged = False
    iterations = 0
    graph = None
    for iterations in range(1, cfg.max_iterations + 1):
        with span("adjust.assign"):
            targets = lloyd_iteration(sites, foi, grid, weights)
        if cfg.connectivity_safe:
            with span("adjust.safe_step"):
                new_sites, graph = _connectivity_safe_step(
                    sites, targets, float(comm_range), cfg.max_halvings, graph
                )
        else:
            new_sites = targets
        step = np.hypot(*(new_sites - sites).T)
        total_movement += float(step.sum())
        sites = new_sites
        snapshots.append(sites.copy())
        if float(step.max()) < tol:
            converged = True
            break
    return LloydResult(
        positions=sites,
        snapshots=snapshots,
        iterations=iterations,
        converged=converged,
        total_movement=total_movement,
    )


def _connectivity_safe_step(
    sites: np.ndarray,
    targets: np.ndarray,
    comm_range: float,
    max_halvings: int,
    graph: UnitDiskGraph | None = None,
) -> tuple[np.ndarray, UnitDiskGraph | None]:
    """Move toward targets, halving *individual* steps that break links.

    Implements Sec. III-D1: "a mobile robot collects the computed
    centroid positions of its one-range neighbors and compares with its
    own.  If no mobile robot will disconnect from the network, every
    robot simply moves to its centroid position; otherwise, each robot
    checks whether it is safe to move to half of the distance to the
    centroid position and so on."

    The check is the paper's local one - after the synchronous step a
    robot must keep at least one of its current neighbours in range -
    with per-robot step factors, so one cornered robot cannot freeze
    the whole swarm.  A global connectivity check backstops the local
    rule (two subgroups could drift apart with all local links intact);
    if it trips, the entire step is uniformly halved, and in the worst
    case the swarm holds position for this iteration.

    ``graph``, when given, must be the unit-disk graph of ``sites``.
    Returns the new positions and, when the global check built it for
    exactly those positions, their graph for the next call to reuse.
    """
    if graph is None:
        graph = UnitDiskGraph(sites, comm_range)
    was_connected = graph.is_connected()
    n = len(sites)
    indptr, nbr = graph.csr
    src = np.repeat(np.arange(n), np.diff(indptr))
    has_nbrs = indptr[1:] > indptr[:-1]
    alphas = np.ones(n)
    moves = targets - sites
    for _ in range(max_halvings + 1):
        proposal = sites + alphas[:, None] * moves
        d = np.hypot(*(proposal[nbr] - proposal[src]).T)
        # Unsafe: has neighbours now, and none of them stays in range.
        unsafe = has_nbrs & (np.bincount(src[d <= comm_range], minlength=n) == 0)
        if not unsafe.any():
            break
        alphas[unsafe] /= 2.0
    proposal = sites + alphas[:, None] * moves
    if not was_connected:
        return proposal, None
    after = UnitDiskGraph(proposal, comm_range)
    if after.is_connected():
        return proposal, after
    # Global backstop: uniformly shrink the (locally safe) step.
    scale = 1.0
    for _ in range(max_halvings + 1):
        scale /= 2.0
        trial = sites + scale * alphas[:, None] * moves
        if UnitDiskGraph(trial, comm_range).is_connected():
            return trial, None
    return sites.copy(), None
