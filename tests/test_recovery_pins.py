"""Pinned bytes of every crash-recovery path.

Crash recovery is reached three ways: :func:`replan_after_failure`
(single events, cascades, the largest-component policy), the resilient
executor (pinned by the chaos smoke digests and the rejoin digest in
``tests/test_faults_executor.py``) and mission crash faults.  The
digests below are the sha256 of ``dumps_canonical`` of each document;
a refactor of the recovery step must leave them unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.faults import CrashFault, FaultSchedule
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.io import dumps_canonical, result_to_dict
from repro.marching import (
    CascadeOutcome,
    FailureEvent,
    MarchingConfig,
    MarchingPlanner,
    replan_after_failure,
)
from repro.missions import MissionConfig, MissionRunner, MissionSpec
from repro.network import UnitDiskGraph
from repro.robots import RadioSpec, Swarm


def _digest(doc) -> str:
    return hashlib.sha256(dumps_canonical(doc)).hexdigest()


# -- missions ------------------------------------------------------------

#: The ``tests/test_missions.py`` knobs.
MISSION_FAST = MissionConfig(
    foi_target_points=100,
    grid_target=300,
    lloyd_max_iterations=6,
    resolution=4,
)

#: ``(crashes, digest)`` of a 2-epoch drifting corridor mission.
MISSION_PINNED = {
    # TestFaultComposition's schedule: one robot dies in the last epoch.
    "one-down": (
        (CrashFault(at=0.75, robots=(12,)),),
        "a4fb585a8201b3934793317110708a81788ef1fd3d0a751661863506505b09c7",
    ),
    # Two crashes inside epoch 0; epoch 1 plans without both robots.
    "two-in-epoch": (
        (CrashFault(at=0.1, robots=(3,)), CrashFault(at=0.3, robots=(20, 4))),
        "a4dfc2af5dfdec24cfbc16379f03486746696cffc44f2c8f7e2a5f2ee2d0303c",
    ),
    # A crash at or after (E-1)/E lands in the last epoch, whose window
    # runs to the plan's end rather than to a handover cut.
    "last-epoch": (
        (CrashFault(at=0.95, robots=(12,)),),
        "ed1d17017dde5ef69ba489fc9e6efb546cb8b9baa8bf2b5a0936bebc17e4f308",
    ),
}


@pytest.mark.parametrize("name", sorted(MISSION_PINNED))
def test_crash_mission_document_is_pinned(name):
    crashes, digest = MISSION_PINNED[name]
    spec = MissionSpec(family="corridor", seed=0, epochs=2, motion="drift")
    faults = FaultSchedule(crashes=crashes, name=name)
    doc = MissionRunner(spec, MISSION_FAST, faults=faults).run()
    assert doc["summary"]["fault_replans"] == len(crashes)
    assert _digest(doc) == digest


# -- replan_after_failure ------------------------------------------------

#: The ``tests/test_marching_replan_sequence.py`` knobs.
FAST = MarchingConfig(
    foi_target_points=150,
    lloyd=LloydConfig(grid_target=500, max_iterations=8),
)

#: A band across the 36-robot lattice; killed at 10% of the march it
#: cuts the survivors 16/13 (``tests/test_faults_executor.py``).
BAND = (1, 5, 11, 16, 22, 28, 33)


@pytest.fixture(scope="module")
def mission():
    radio = RadioSpec.from_comm_range(80.0)
    m1 = FieldOfInterest(
        ellipse_polygon(1.0, 1.0, samples=30).scaled_to_area(100_000.0),
        name="m1",
    )
    swarm = Swarm.deploy_lattice(m1, 36, radio)
    m2 = FieldOfInterest(
        ellipse_polygon(1.1, 0.9, samples=30).scaled_to_area(95_000.0),
        name="m2",
    ).translated((1000.0, 100.0))
    result = MarchingPlanner(FAST).plan(swarm, m2)
    return swarm, m2, result


def _step_doc(step) -> dict:
    return {
        "time": step.event.time,
        "failed": list(step.event.failed),
        "survivor_ids": [int(i) for i in step.survivor_ids],
        "positions_at_failure": step.positions_at_failure.tolist(),
        "survivors_connected": bool(step.survivors_connected),
        "result": result_to_dict(step.result),
    }


def _outcome_doc(outcome) -> dict:
    if isinstance(outcome, CascadeOutcome):
        return {
            "steps": [_step_doc(s) for s in outcome.steps],
            "survivor_ids": [int(i) for i in outcome.survivor_ids],
        }
    return _step_doc(outcome)


def _events(original):
    traj = original.trajectory
    at = lambda frac: traj.t_start + frac * traj.duration  # noqa: E731
    return {
        "single": FailureEvent(time=0.4, failed=(3, 17)),
        "cascade": [
            FailureEvent(time=0.2, failed=(0,)),
            FailureEvent(time=0.5, failed=(1, 9)),
            FailureEvent(time=0.8, failed=(2,)),
        ],
        "at-T": FailureEvent(time=traj.t_end, failed=(7,)),
        "largest": FailureEvent(time=at(0.1), failed=BAND),
    }


#: ``replan_after_failure`` outcome documents on the fixture above.
REPLAN_PINNED = {
    "single": (
        "e9318dfdd5063c0c7cae8c00f6314e1717a170f1339c69bb7860cc58f30350b6"
    ),
    "cascade": (
        "464105b06a41ea0f0b0b73a8cdc7e1970a08c7aeb3844b85b0c3a044fe0a14fe"
    ),
    "at-T": (
        "75be2d95af10ece2f91f28b923ed2a7427847c8348efee6fbfd7b6c493ec9918"
    ),
    "largest": (
        "b079a1575a1f2b47d6ca7557bc897df2acd1b1a226f3eea20edabb8f7297a961"
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAN_PINNED))
def test_replan_outcome_is_pinned(mission, name):
    swarm, m2, original = mission
    outcome = replan_after_failure(
        original, _events(original)[name], m2, swarm.radio.comm_range,
        config=FAST, require_connected=name != "largest",
    )
    assert _digest(_outcome_doc(outcome)) == REPLAN_PINNED[name]


def test_largest_component_policy_drops_the_cut_robots(mission):
    """``require_connected=False`` replans only the main component."""
    swarm, m2, original = mission
    event = _events(original)["largest"]
    traj = original.trajectory
    survivors = [k for k in range(swarm.size) if k not in BAND]
    graph = UnitDiskGraph(
        traj.positions_at(event.time)[survivors], swarm.radio.comm_range
    )
    assert not graph.is_connected()
    outcome = replan_after_failure(
        original, event, m2, swarm.radio.comm_range, config=FAST,
        require_connected=False,
    )
    main = np.asarray(survivors)[graph.components[0]]
    assert not outcome.survivors_connected
    assert np.array_equal(outcome.survivor_ids, main)
    assert outcome.result.robot_count == len(graph.components[0])
