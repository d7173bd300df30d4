"""The paper's core contribution: the optimal-marching planner."""

from repro.marching.distributed_planner import DistributedMarchingPlanner
from repro.marching.pipeline import PipelineStages, run_pipeline
from repro.marching.planner import MarchingConfig, MarchingPlanner
from repro.marching.repair import repair_targets
from repro.marching.replan import (
    CascadeOutcome,
    FailureEvent,
    ReplanOutcome,
    replan_after_failure,
    validate_failure_sequence,
)
from repro.marching.result import MarchingResult, RepairInfo

__all__ = [
    "CascadeOutcome",
    "DistributedMarchingPlanner",
    "FailureEvent",
    "MarchingConfig",
    "MarchingPlanner",
    "MarchingResult",
    "PipelineStages",
    "RepairInfo",
    "ReplanOutcome",
    "repair_targets",
    "replan_after_failure",
    "run_pipeline",
    "validate_failure_sequence",
]
