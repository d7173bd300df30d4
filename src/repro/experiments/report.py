"""One-shot markdown report across all scenarios.

``python -m repro report`` runs every scenario at a chosen separation,
collects the paper's three metrics per method, renders Table I plus a
per-scenario metric table as markdown, and (optionally) writes the
figure panels.  Useful as a single artifact documenting a full
reproduction run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.experiments.harness import DEFAULT_METHODS, ScenarioRun, run_scenarios
from repro.experiments.scenarios import SCENARIOS, get_scenario
from repro.experiments.tables import format_table, render_table1
from repro.obs import Tracer, activate

__all__ = ["build_report", "write_report"]


def _section(title: str, intro: str, rendered: str) -> list[str]:
    """A report section: heading, one-paragraph intro, and a campaign's
    own ``render_*`` output verbatim in a fenced text block."""
    return ["", f"## {title}", "", intro, "", "```text", rendered, "```"]


def build_report(
    separation_factor: float = 20.0,
    scenario_ids: Sequence[int] | None = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    workers: int | None = None,
    chaos: bool = False,
    chaos_seeds: Sequence[int] = (0,),
    chaos_scenarios: Sequence[int] | None = None,
    zoo: bool = False,
    zoo_seeds: int = 2,
    zoo_families: Sequence[str] | None = None,
    missions: bool = False,
    mission_seeds: int = 1,
    mission_epochs: int = 3,
    mission_families: Sequence[str] | None = None,
    load: bool = False,
    load_clients: int = 200,
    load_seed: int = 0,
    load_service_workers: int = 2,
    **run_kwargs,
) -> str:
    """Run the scenarios and return the markdown report text.

    With ``workers > 1`` the scenarios fan out over worker processes;
    their spans and metrics merge back into the report's tracer (in
    scenario order), so the phase-timing table reflects worker time and
    the metric tables are identical for any worker count (the timing
    table, like any wall-clock measurement, varies run to run).

    Each optional campaign section embeds that campaign's own CLI
    rendering (the same text its subcommand prints) in a fenced block:

    * ``chaos=True`` - a seeded fault-archetype sweep
      (:func:`repro.experiments.chaos.render_chaos`);
    * ``zoo=True`` - a procedural-FoI invariant campaign with any
      replayable counterexample triples
      (:func:`repro.experiments.zoo.render_zoo`);
    * ``missions=True`` - seeded missions whose targets drift and
      deform across epochs, with the campaign's canonical digest
      (:func:`repro.experiments.missions.render_missions`);
    * ``load=True`` - a seeded ``load_clients``-strong burst against a
      fresh ``load_service_workers``-shard in-process fleet, with
      latency percentiles and the correctness checklist
      (:func:`repro.experiments.loadgen.render_loadgen`).
    """
    ids = sorted(scenario_ids or SCENARIOS)
    tracer = Tracer()
    with activate(tracer):
        runs: dict[int, ScenarioRun] = run_scenarios(
            [get_scenario(sid) for sid in ids],
            separation_factor,
            methods,
            workers=workers,
            **run_kwargs,
        )

    parts = [
        "# Optimal Marching - reproduction report",
        "",
        f"All scenarios at separation {separation_factor:g} x communication "
        "range; metrics per Definitions 1-2 of the paper.",
        "",
        "## Table I - global connectivity",
        "",
        "```text",
        render_table1(runs, list(methods)),
        "```",
        "",
        "## Per-scenario metrics",
    ]
    for sid in ids:
        run = runs[sid]
        spec = get_scenario(sid)
        parts.extend([
            "",
            f"### Scenario {sid}: {spec.description}",
            "",
            format_table(
                ["method", "D (km)", "D / D_Hungarian", "L", "C"],
                [
                    [
                        m,
                        f"{run.evaluations[m].total_distance / 1000:.1f}",
                        f"{run.distance_ratio(m):.3f}",
                        f"{run.evaluations[m].stable_link_ratio:.3f}",
                        run.evaluations[m].connectivity_flag,
                    ]
                    for m in methods
                ],
                markdown=True,
            ),
        ])
    if chaos:
        from repro.experiments.chaos import (
            DEFAULT_SCENARIOS,
            chaos_sweep,
            render_chaos,
        )

        summary = chaos_sweep(
            scenario_ids=chaos_scenarios or DEFAULT_SCENARIOS,
            seeds=chaos_seeds,
            workers=workers,
        )
        parts.extend(_section(
            "Recovery under failures",
            f"Seeded fault sweep over scenarios "
            f"{summary['matrix']['scenarios']} x archetypes "
            f"{summary['matrix']['archetypes']} "
            f"({summary['config']['robot_count']} robots per case): "
            "recovery outcome, replans and escort rejoins per case.",
            render_chaos(summary),
        ))
    if zoo:
        from repro.experiments.zoo import FAMILIES, render_zoo, zoo_campaign

        zoo_summary = zoo_campaign(
            families=tuple(zoo_families) if zoo_families else FAMILIES,
            seeds=tuple(range(zoo_seeds)),
            workers=workers,
        )
        parts.extend(_section(
            "Scenario zoo",
            f"Procedural invariant campaign over families "
            f"{list(zoo_summary['matrix']['families'])} x seeds "
            f"{list(zoo_summary['matrix']['seeds'])} "
            f"({zoo_summary['config']['robot_count']} robots per case, "
            f"methods {zoo_summary['config']['methods']}): C = 1 incl. "
            "jump left-limits, the Lemma-1 distance floor, Definition-2 "
            "re-verification and canonical-byte stability per case.",
            render_zoo(zoo_summary),
        ))
    if missions:
        from repro.experiments.missions import (
            DEFAULT_FAMILIES,
            mission_campaign,
            render_missions,
        )

        mission_summary = mission_campaign(
            families=tuple(mission_families or DEFAULT_FAMILIES),
            seeds=tuple(range(mission_seeds)),
            epochs=mission_epochs,
            workers=workers,
        )
        parts.extend(_section(
            "Streaming missions",
            f"Seeded replanning campaign over families "
            f"{list(mission_summary['matrix']['families'])} x motions "
            f"{list(mission_summary['matrix']['motions'])} x seeds "
            f"{list(mission_summary['matrix']['seeds'])} "
            f"({mission_summary['config']['robot_count']} robots, "
            f"{mission_summary['matrix']['epochs']} epochs per mission): "
            "C = 1 across incremental replans, and disk-map cache reuse.",
            render_missions(mission_summary),
        ))
    if load:
        from repro.experiments.loadgen import (
            LoadgenConfig,
            render_loadgen,
            run_loadgen_fleet,
        )

        load_summary = run_loadgen_fleet(
            LoadgenConfig(clients=load_clients, seed=load_seed),
            service_workers=load_service_workers,
        )
        parts.extend(_section(
            "Load testing",
            f"Seeded open-loop burst against a fresh "
            f"{load_summary['service_workers']}-shard fleet, then a "
            "restart on the same journal: latency percentiles and the "
            "correctness checklist.",
            render_loadgen(load_summary),
        ))
    parts.extend([
        "",
        "## Phase timings",
        "",
        format_table(
            ["span", "calls", "total (s)", "mean (ms)"],
            [
                [name, row["calls"], f"{row['total_s']:.3f}",
                 f"{row['mean_s'] * 1000:.2f}"]
                for name, row in tracer.phase_timings().items()
            ],
            markdown=True,
        ),
    ])
    parts.append("")
    return "\n".join(parts)


def write_report(path, **kwargs) -> Path:
    """Build the report and write it to ``path``."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(build_report(**kwargs))
    return p
