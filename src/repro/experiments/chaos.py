"""Seeded chaos sweep: fault archetypes x scenarios x seeds.

``python -m repro chaos`` (and the CI chaos-smoke job) runs the
resilient executor of :mod:`repro.faults` over a matrix of scenario
shapes and fault archetypes.  Every case is fully determined by its
``(scenario, archetype, seed)`` triple - the summary document is
byte-identical across runs and worker counts, which ``scripts/smoke.py
chaos`` asserts by comparing :func:`repro.io.dumps_canonical` bytes.

The sweep reuses the paper's scenario FoI shapes at a reduced robot
count so a full matrix stays CI-sized (each case plans, injects and
replans in well under a second); the fault mechanics are identical to
full-scale runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.coverage import LloydConfig
from repro.errors import UnrecoverableError
from repro.exec import LRUCache, parallel_map, resolve_workers
from repro.experiments.scenarios import get_scenario
from repro.experiments.tables import format_table
from repro.faults import ResilientExecutor, build_archetype_schedule
from repro.marching import MarchingConfig, MarchingPlanner
from repro.obs import span
from repro.robots import RadioSpec, Swarm

__all__ = [
    "ChaosCase",
    "ChaosConfig",
    "DEFAULT_ARCHETYPES",
    "DEFAULT_SCENARIOS",
    "chaos_sweep",
    "render_chaos",
    "run_chaos_case",
]

DEFAULT_SCENARIOS = (1, 2, 4)
DEFAULT_ARCHETYPES = ("single", "cluster", "cascade")


@dataclass(frozen=True)
class ChaosConfig:
    """Size/resolution knobs of a chaos sweep.

    Attributes
    ----------
    robot_count : int
        Robots per case (reduced from the scenarios' 144 to keep a
        full matrix CI-sized; the paper's M1 area needs >= ~57 robots
        for the starting lattice to stay within communication range,
        and the default 81 leaves enough density headroom that the
        survivors' coverage of M2 stays connectable after crashes).
    separation_factor : float
        M1-M2 centroid distance in communication ranges.
    foi_target_points, grid_target : int
        Planner resolution knobs.
    resolution : int
        Metric sampling resolution (connectivity, ``L``).
    """

    robot_count: int = 81
    separation_factor: float = 6.0
    foi_target_points: int = 150
    grid_target: int = 500
    resolution: int = 8

    def marching_config(self) -> MarchingConfig:
        return MarchingConfig(
            foi_target_points=self.foi_target_points,
            lloyd=LloydConfig(grid_target=self.grid_target),
        )


@dataclass(frozen=True)
class ChaosCase:
    """One (scenario, archetype, seed) cell of the sweep matrix."""

    scenario_id: int
    archetype: str
    seed: int


# Baseline plans depend only on (scenario, config), not on the fault
# schedule, so each worker process computes them once per scenario; the
# memo is bounded like the harness's scenario memo.
_PLAN_CACHE_CAPACITY = 8
_PLAN_CACHE = LRUCache(_PLAN_CACHE_CAPACITY)


def _baseline(scenario_id: int, config: ChaosConfig):
    key = (scenario_id, config)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    spec = get_scenario(scenario_id)
    m1, m2 = spec.build(config.separation_factor)
    radio = RadioSpec.from_comm_range(spec.comm_range)
    swarm = Swarm.deploy_lattice(m1, config.robot_count, radio)
    original = MarchingPlanner(config.marching_config()).plan(
        swarm, m2, source_foi=m1
    )
    _PLAN_CACHE.put(key, (swarm, m2, original))
    return swarm, m2, original


def run_chaos_case(
    case: ChaosCase, config: ChaosConfig | None = None
) -> dict[str, Any]:
    """Run one fault-injected mission; always returns a plain document.

    The executor's two outcomes map onto two document shapes:
    ``outcome: "recovered"`` carries the recovery metrics, and
    ``outcome: "unrecoverable"`` carries the typed error's stage - the
    sweep never swallows a third state.
    """
    config = config or ChaosConfig()
    swarm, m2, original = _baseline(case.scenario_id, config)
    schedule = build_archetype_schedule(
        case.archetype,
        swarm.positions,
        seed=case.seed,
        name=f"s{case.scenario_id}-{case.archetype}-{case.seed}",
    )
    doc: dict[str, Any] = {
        "scenario_id": case.scenario_id,
        "archetype": case.archetype,
        "seed": case.seed,
        "robots": swarm.size,
    }
    with span(
        "chaos.case",
        scenario=case.scenario_id,
        archetype=case.archetype,
        seed=case.seed,
    ):
        try:
            executor = ResilientExecutor(
                config.marching_config(), config.resolution
            )
            report = executor.execute(swarm, m2, schedule, original=original)
        except UnrecoverableError as exc:
            doc.update(
                outcome="unrecoverable",
                stage=exc.stage,
                survivors=exc.survivors,
                error=str(exc),
            )
            return doc
    doc.update(
        outcome="recovered",
        survivors=len(report.survivor_ids),
        metrics=report.metrics.to_dict(),
    )
    return doc


def _chaos_task(task) -> dict[str, Any]:
    """Module-level (picklable) worker task for :func:`parallel_map`."""
    case, config = task
    return run_chaos_case(case, config)


def chaos_sweep(
    scenario_ids: Sequence[int] = DEFAULT_SCENARIOS,
    archetypes: Sequence[str] = DEFAULT_ARCHETYPES,
    seeds: Sequence[int] = (0,),
    config: ChaosConfig | None = None,
    workers: int | None = None,
) -> dict[str, Any]:
    """Run the full fault matrix and aggregate a summary document.

    Returns a plain-JSON dict with one entry per case (in deterministic
    matrix order) plus aggregate counts.  Identical for any ``workers``
    count; serialize with :func:`repro.io.dumps_canonical` to compare
    runs.
    """
    config = config or ChaosConfig()
    cases = [
        ChaosCase(scenario_id=sid, archetype=arch, seed=seed)
        for sid in scenario_ids
        for arch in archetypes
        for seed in seeds
    ]
    workers = resolve_workers(workers)
    with span("chaos.sweep", cases=len(cases), workers=workers):
        docs = parallel_map(
            _chaos_task,
            [(c, config) for c in cases],
            workers=workers,
        )

    recovered = [d for d in docs if d["outcome"] == "recovered"]
    unrecoverable = [d for d in docs if d["outcome"] == "unrecoverable"]
    aggregates: dict[str, Any] = {
        "cases": len(docs),
        "recovered": len(recovered),
        "unrecoverable": len(unrecoverable),
        "replans_total": sum(
            d["metrics"]["replan_count"] for d in recovered
        ),
        "rejoins_total": sum(
            d["metrics"]["rejoin_count"] for d in recovered
        ),
        "connected_all": all(
            d["metrics"]["connected_all"] for d in recovered
        ),
    }
    return {
        "config": asdict(config),
        "matrix": {
            "scenarios": list(scenario_ids),
            "archetypes": list(archetypes),
            "seeds": list(seeds),
        },
        "cases": docs,
        "summary": aggregates,
    }


def render_chaos(summary: dict[str, Any]) -> str:
    """Human-readable table of a chaos sweep (the CLI's output)."""
    rows = []
    for doc in summary["cases"]:
        if doc["outcome"] == "recovered":
            m = doc["metrics"]
            rows.append([
                doc["scenario_id"],
                doc["archetype"],
                doc["seed"],
                "recovered",
                doc["survivors"],
                m["replan_count"],
                m["rejoin_count"],
                f"{m['extra_distance']:.1f}",
                f"{m['time_to_recover']:.3f}",
                f"{m['stable_link_degradation']:+.3f}",
                "Y" if m["connected_all"] else "N",
            ])
        else:
            rows.append([
                doc["scenario_id"],
                doc["archetype"],
                doc["seed"],
                f"unrecoverable ({doc['stage']})",
                doc["survivors"],
                "-", "-", "-", "-", "-", "-",
            ])
    agg = summary["summary"]
    table = format_table(
        [
            "scenario", "archetype", "seed", "outcome", "survivors",
            "replans", "rejoins", "extra D", "t_recover", "dL", "C",
        ],
        rows,
    )
    footer = (
        f"{agg['recovered']}/{agg['cases']} recovered, "
        f"{agg['unrecoverable']} unrecoverable; "
        f"{agg['replans_total']} replans, {agg['rejoins_total']} rejoins; "
        f"post-replan connectivity "
        f"{'held' if agg['connected_all'] else 'VIOLATED'}"
    )
    return f"{table}\n{footer}"
