"""Scenario registry, evaluation harness and table rendering."""

from repro.experiments.harness import (
    DEFAULT_METHODS,
    ScenarioRun,
    SweepPoint,
    SweepResult,
    TransitionEvaluation,
    evaluate_trajectory,
    run_scenario,
    run_scenarios,
    sweep_many,
    sweep_separations,
)
from repro.experiments.chaos import (
    ChaosCase,
    ChaosConfig,
    chaos_sweep,
    render_chaos,
    run_chaos_case,
)
from repro.experiments.crashrec import (
    CrashRecConfig,
    crashrec_passed,
    render_crashrec,
    run_crashrec,
)
from repro.experiments.figures import write_sweep_figures
from repro.experiments.loadgen import (
    LoadgenConfig,
    build_schedule,
    render_loadgen,
    run_loadgen,
    run_loadgen_fleet,
)
from repro.experiments.generator import RandomScenario, random_foi, random_scenario
from repro.experiments.missions import (
    mission_campaign,
    missions_passed,
    render_missions,
    run_mission_cell,
)
from repro.experiments.report import build_report, write_report
from repro.experiments.lemmas import (
    Lemma1Example,
    Lemma2Example,
    lemma1_example,
    lemma2_example,
)
from repro.experiments.scenarios import COMM_RANGE, ROBOT_COUNT, SCENARIOS, ScenarioSpec, get_scenario
from repro.experiments.zoo import (
    FAMILIES as ZOO_FAMILIES,
    ZooCase,
    ZooConfig,
    ZooParams,
    render_zoo,
    run_zoo_case,
    zoo_campaign,
)
from repro.experiments.trace import TransitionTrace, record_trace, render_trace_chart
from repro.experiments.tables import format_table, render_sweep, render_table1

__all__ = [
    "COMM_RANGE",
    "ChaosCase",
    "ChaosConfig",
    "DEFAULT_METHODS",
    "chaos_sweep",
    "render_chaos",
    "run_chaos_case",
    "CrashRecConfig",
    "Lemma1Example",
    "Lemma2Example",
    "LoadgenConfig",
    "ROBOT_COUNT",
    "RandomScenario",
    "SCENARIOS",
    "random_foi",
    "random_scenario",
    "record_trace",
    "render_trace_chart",
    "ScenarioRun",
    "ZOO_FAMILIES",
    "ZooCase",
    "ZooConfig",
    "ZooParams",
    "render_zoo",
    "run_zoo_case",
    "zoo_campaign",
    "ScenarioSpec",
    "SweepPoint",
    "SweepResult",
    "TransitionEvaluation",
    "TransitionTrace",
    "build_report",
    "build_schedule",
    "crashrec_passed",
    "evaluate_trajectory",
    "format_table",
    "get_scenario",
    "lemma1_example",
    "lemma2_example",
    "mission_campaign",
    "missions_passed",
    "render_crashrec",
    "render_loadgen",
    "render_missions",
    "run_crashrec",
    "run_mission_cell",
    "render_sweep",
    "render_table1",
    "run_loadgen",
    "run_loadgen_fleet",
    "run_scenario",
    "run_scenarios",
    "sweep_many",
    "sweep_separations",
    "write_report",
    "write_sweep_figures",
]
