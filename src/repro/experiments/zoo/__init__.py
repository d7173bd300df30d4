"""The scenario zoo: procedural FoI families + invariant campaigns.

See :mod:`repro.experiments.zoo.families` for the shape generators,
:mod:`repro.experiments.zoo.validate` for structural validation, and
:mod:`repro.experiments.zoo.campaign` for the whole-pipeline invariant
harness behind ``python -m repro zoo``.  Hypothesis strategies live in
:mod:`repro.experiments.zoo.strategies` (imported lazily - hypothesis
is a test dependency).
"""

from repro.experiments.zoo.campaign import (
    INVARIANTS,
    ZooCase,
    ZooConfig,
    ZooScenario,
    build_zoo_scenario,
    render_zoo,
    replay_counterexample,
    run_zoo_case,
    shrink_case,
    zoo_campaign,
)
from repro.experiments.zoo.families import (
    FAMILIES,
    ZooParams,
    build_foi,
    draw_params,
    family_rng,
    mild_params,
)
from repro.experiments.zoo.validate import (
    ValidationReport,
    assert_deployable,
    hole_clearance,
    shrink_hole_to_clearance,
    validate_foi,
)

__all__ = [
    "FAMILIES",
    "INVARIANTS",
    "ValidationReport",
    "ZooCase",
    "ZooConfig",
    "ZooParams",
    "ZooScenario",
    "assert_deployable",
    "build_foi",
    "build_zoo_scenario",
    "draw_params",
    "family_rng",
    "hole_clearance",
    "mild_params",
    "render_zoo",
    "replay_counterexample",
    "run_zoo_case",
    "shrink_case",
    "shrink_hole_to_clearance",
    "validate_foi",
    "zoo_campaign",
]
