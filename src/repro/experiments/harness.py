"""Experiment harness: run methods on scenarios and collect the metrics.

This is the code behind every table and figure reproduction.  For a
scenario instance it runs the four methods of Sec. IV - our method (a),
our method (b), direct translation, and Hungarian - and scores each
with the paper's three metrics (``D``, ``L``, ``C``).

Heavy per-scenario artifacts (the M1 swarm, its triangulation boundary,
the canonical optimal coverage positions ``Q``) depend only on the FoI
*shapes*, not on where M2 is placed, so they are computed once per
scenario and translated per separation - making the Fig. 3 sweeps
tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import direct_translation_plan, hungarian_plan
from repro.coverage.lattice import optimal_coverage_positions
from repro.coverage.lloyd import LloydConfig
from repro.exec import LRUCache, parallel_map
from repro.experiments.scenarios import ScenarioSpec
from repro.marching import MarchingConfig, MarchingPlanner
from repro.metrics import (
    connectivity_report,
    stable_link_ratio,
)
from repro.network.extract import extract_triangulation
from repro.network.links import LinkTable
from repro.obs import span
from repro.robots import RadioSpec, Swarm
from repro.robots.motion import SwarmTrajectory

__all__ = [
    "TransitionEvaluation",
    "ScenarioRun",
    "SweepPoint",
    "SweepResult",
    "evaluate_trajectory",
    "run_scenario",
    "run_scenarios",
    "sweep_separations",
    "sweep_many",
    "DEFAULT_METHODS",
]

DEFAULT_METHODS = ("ours (a)", "ours (b)", "direct translation", "Hungarian")


@dataclass(frozen=True)
class TransitionEvaluation:
    """The paper's three metrics for one method on one scenario instance.

    Attributes
    ----------
    method : str
    total_distance : float
        ``D`` including any adjustment phase.
    stable_link_ratio : float
        ``L`` per Definition 1.
    globally_connected : bool
        ``C`` per Definition 2 (path to network boundary at all times).
    max_isolated : int
        Worst simultaneous isolation observed (0 when connected).
    final_positions : ndarray
    """

    method: str
    total_distance: float
    stable_link_ratio: float
    globally_connected: bool
    max_isolated: int
    final_positions: np.ndarray

    @property
    def connectivity_flag(self) -> str:
        return "Y" if self.globally_connected else "N"


def evaluate_trajectory(
    method: str,
    trajectory: SwarmTrajectory,
    links: LinkTable,
    boundary_anchors,
    resolution: int = 32,
) -> TransitionEvaluation:
    """Score a trajectory with the paper's three metrics."""
    report = connectivity_report(
        trajectory, links.comm_range, boundary_anchors, resolution
    )
    return TransitionEvaluation(
        method=method,
        total_distance=trajectory.total_distance(),
        stable_link_ratio=stable_link_ratio(links, trajectory),
        globally_connected=report.connected,
        max_isolated=report.max_isolated,
        final_positions=trajectory.end_positions,
    )


@dataclass
class _ScenarioCache:
    """Shape-dependent artifacts shared across separations."""

    swarm: Swarm
    links: LinkTable
    anchors: tuple[int, ...]
    q_canonical: np.ndarray
    m2_canonical_centroid: np.ndarray


#: Scenario memo bound.  The key carries the request's grid target, so a
#: long-running service must not keep one entry per target ever seen;
#: eight holds every paper scenario at one grid target.
_CACHE_CAPACITY = 8
_CACHE = LRUCache(_CACHE_CAPACITY)


def _scenario_cache(spec: ScenarioSpec, grid_target: int) -> _ScenarioCache:
    key = (spec.scenario_id, spec.robot_count, spec.comm_range, grid_target)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    radio = RadioSpec.from_comm_range(spec.comm_range)
    m1 = spec.m1_builder()
    m2 = spec.m2_builder()
    swarm = Swarm.deploy_lattice(m1, spec.robot_count, radio)
    links = LinkTable.from_graph(swarm.communication_graph())
    t_mesh, vmap = extract_triangulation(swarm.positions, spec.comm_range)
    anchors = tuple(int(vmap[v]) for v in t_mesh.outer_boundary_loop)
    q_canonical = optimal_coverage_positions(
        m2, spec.robot_count, spec.comm_range, grid_target=grid_target
    )
    cache = _ScenarioCache(
        swarm=swarm,
        links=links,
        anchors=anchors,
        q_canonical=q_canonical,
        m2_canonical_centroid=m2.centroid,
    )
    _CACHE.put(key, cache)
    return cache


@dataclass(frozen=True)
class ScenarioRun:
    """All method evaluations for one (scenario, separation) instance."""

    scenario_id: int
    separation_factor: float
    evaluations: dict[str, TransitionEvaluation]

    def distance_ratio(self, method: str, baseline: str = "Hungarian") -> float:
        """``D_method / D_baseline`` - the normalised y-axis of Fig. 3/4/5."""
        return (
            self.evaluations[method].total_distance
            / self.evaluations[baseline].total_distance
        )


def run_scenario(
    spec: ScenarioSpec,
    separation_factor: float = 20.0,
    methods=DEFAULT_METHODS,
    foi_target_points: int = 500,
    lloyd_grid_target: int = 2000,
    resolution: int = 32,
) -> ScenarioRun:
    """Run the requested methods on a scenario instance and score them.

    Parameters
    ----------
    spec : ScenarioSpec
    separation_factor : float
        M1-M2 centroid distance in communication ranges.
    methods : iterable of str
        Subset of ``DEFAULT_METHODS``.
    foi_target_points, lloyd_grid_target : int
        Resolution knobs forwarded to the planner.
    resolution : int
        Definition-2 sampling resolution over the transition.
    """
    cache = _scenario_cache(spec, lloyd_grid_target)
    m1, m2 = spec.build(separation_factor)
    offset = m2.centroid - cache.m2_canonical_centroid
    q_targets = cache.q_canonical + offset

    evaluations: dict[str, TransitionEvaluation] = {}
    with span(
        "experiment.run_scenario",
        scenario=spec.scenario_id,
        separation=separation_factor,
    ):
        for method in methods:
            with span("experiment.method", method=method) as sp_:
                if method == "ours (a)" or method == "ours (b)":
                    cfg = MarchingConfig(
                        method="a" if method.endswith("(a)") else "b",
                        foi_target_points=foi_target_points,
                        lloyd=LloydConfig(grid_target=lloyd_grid_target),
                    )
                    result = MarchingPlanner(cfg).plan(
                        cache.swarm, m2, source_foi=m1
                    )
                    evaluations[method] = evaluate_trajectory(
                        method, result.trajectory, result.links,
                        result.boundary_anchors, resolution,
                    )
                elif method == "direct translation":
                    plan = direct_translation_plan(
                        cache.swarm.positions, q_targets, m1, m2
                    )
                    evaluations[method] = evaluate_trajectory(
                        method, plan.trajectory, cache.links, cache.anchors,
                        resolution,
                    )
                elif method == "Hungarian":
                    plan = hungarian_plan(cache.swarm.positions, q_targets)
                    evaluations[method] = evaluate_trajectory(
                        method, plan.trajectory, cache.links, cache.anchors,
                        resolution,
                    )
                else:
                    raise ValueError(f"unknown method {method!r}")
                e = evaluations[method]
                sp_.set_attributes(
                    total_distance=e.total_distance,
                    stable_link_ratio=e.stable_link_ratio,
                    connected=e.globally_connected,
                )
    return ScenarioRun(
        scenario_id=spec.scenario_id,
        separation_factor=separation_factor,
        evaluations=evaluations,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point of a Fig. 3-style sweep."""

    separation_factor: float
    distance_ratio: dict[str, float]
    stable_link_ratio: dict[str, float]
    connected: dict[str, bool]


@dataclass(frozen=True)
class SweepResult:
    """A full separation sweep for one scenario (rows 4-5 of Fig. 3/5)."""

    scenario_id: int
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, metric: str, method: str) -> list[float]:
        """Extract one plotted series, e.g. ``series("distance_ratio", "ours (a)")``."""
        return [getattr(p, metric)[method] for p in self.points]

    @property
    def separations(self) -> list[float]:
        return [p.separation_factor for p in self.points]


def _sweep_point_from_run(run: ScenarioRun) -> SweepPoint:
    """Condense one scenario run into a Fig. 3 sweep point."""
    hung = run.evaluations.get("Hungarian")
    base = hung.total_distance if hung else max(
        e.total_distance for e in run.evaluations.values()
    )
    return SweepPoint(
        separation_factor=run.separation_factor,
        distance_ratio={
            m: e.total_distance / base for m, e in run.evaluations.items()
        },
        stable_link_ratio={
            m: e.stable_link_ratio for m, e in run.evaluations.items()
        },
        connected={
            m: e.globally_connected for m, e in run.evaluations.items()
        },
    )


def _scenario_task(task) -> ScenarioRun:
    """One ``run_scenario`` call, shaped for :func:`parallel_map`.

    Module-level (hence picklable) so the process pool can ship it;
    ``task`` is ``(spec, separation, methods, run_kwargs)``.
    """
    spec, separation, methods, run_kwargs = task
    return run_scenario(spec, separation, methods, **run_kwargs)


def _sweep_task(task) -> "SweepResult":
    """One whole-scenario sweep, shaped for :func:`parallel_map`."""
    spec, separation_factors, methods, run_kwargs = task
    return sweep_separations(
        spec, separation_factors, methods, workers=1, **run_kwargs
    )


def sweep_separations(
    spec: ScenarioSpec,
    separation_factors=(10.0, 25.0, 50.0, 75.0, 100.0),
    methods=DEFAULT_METHODS,
    workers: int | None = None,
    **run_kwargs,
) -> SweepResult:
    """Reproduce a Fig. 3-style sweep: metrics vs M1-M2 separation.

    Parameters
    ----------
    spec, separation_factors, methods
        As before.
    workers : int, optional
        Fan the sweep points out over this many workers (``None`` reads
        ``REPRO_WORKERS``, default 1 = inline).  Results are identical
        for any worker count: every point is a pure computation, and
        per-worker obs spans/metrics merge back in point order.
    """
    runs = parallel_map(
        _scenario_task,
        [
            (spec, sep, tuple(methods), dict(run_kwargs))
            for sep in separation_factors
        ],
        workers=workers,
    )
    return SweepResult(
        scenario_id=spec.scenario_id,
        points=[_sweep_point_from_run(run) for run in runs],
    )


def run_scenarios(
    specs,
    separation_factor: float = 20.0,
    methods=DEFAULT_METHODS,
    workers: int | None = None,
    **run_kwargs,
) -> dict[int, ScenarioRun]:
    """Run several scenarios (Table I / report path), optionally in parallel.

    Returns
    -------
    dict
        ``{scenario_id: ScenarioRun}`` in scenario order, identical for
        any ``workers`` count.
    """
    specs = list(specs)
    runs = parallel_map(
        _scenario_task,
        [
            (spec, separation_factor, tuple(methods), dict(run_kwargs))
            for spec in specs
        ],
        workers=workers,
    )
    return {spec.scenario_id: run for spec, run in zip(specs, runs)}


def sweep_many(
    specs,
    separation_factors=(10.0, 25.0, 50.0, 75.0, 100.0),
    methods=DEFAULT_METHODS,
    workers: int | None = None,
    **run_kwargs,
) -> list[SweepResult]:
    """Full sweeps for several scenarios, one worker task per scenario."""
    return parallel_map(
        _sweep_task,
        [
            (spec, tuple(separation_factors), tuple(methods), dict(run_kwargs))
            for spec in specs
        ],
        workers=workers,
    )
