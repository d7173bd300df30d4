"""Tests for mid-transition failure recovery."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.errors import PlanningError
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.marching import (
    FailureEvent,
    MarchingConfig,
    MarchingPlanner,
    replan_after_failure,
)
from repro.metrics import connectivity_report
from repro.robots import RadioSpec, Swarm

FAST = MarchingConfig(
    foi_target_points=200, lloyd=LloydConfig(grid_target=700, max_iterations=20)
)


@pytest.fixture(scope="module")
def mission():
    radio = RadioSpec.from_comm_range(80.0)
    m1 = FieldOfInterest(
        ellipse_polygon(1.0, 1.0, samples=36).scaled_to_area(140_000.0), name="m1"
    )
    swarm = Swarm.deploy_lattice(m1, 49, radio)
    m2 = FieldOfInterest(
        ellipse_polygon(1.2, 0.9, samples=36).scaled_to_area(130_000.0), name="m2"
    ).translated((1300.0, 150.0))
    result = MarchingPlanner(FAST).plan(swarm, m2)
    return swarm, m2, result


class TestFailureEvent:
    def test_duplicates_rejected(self):
        with pytest.raises(PlanningError):
            FailureEvent(time=0.5, failed=(1, 1))


class TestReplan:
    def test_recovery_mid_march(self, mission):
        swarm, m2, original = mission
        event = FailureEvent(time=0.4, failed=(3, 17))
        outcome = replan_after_failure(
            original, event, m2, swarm.radio.comm_range, config=FAST
        )
        assert outcome.survivors_connected
        assert len(outcome.survivor_ids) == swarm.size - 2
        assert 3 not in outcome.survivor_ids
        # The survivors' new plan starts exactly where they were.
        assert np.allclose(
            outcome.result.start_positions, outcome.positions_at_failure
        )
        # And delivers the full guarantee again.
        rep = connectivity_report(
            outcome.result.trajectory,
            swarm.radio.comm_range,
            outcome.result.boundary_anchors,
        )
        assert rep.connected
        assert m2.contains(outcome.result.final_positions).all()

    def test_failure_at_start(self, mission):
        swarm, m2, original = mission
        outcome = replan_after_failure(
            original, FailureEvent(time=0.0, failed=(0,)), m2,
            swarm.radio.comm_range, config=FAST,
        )
        assert len(outcome.survivor_ids) == swarm.size - 1

    def test_time_out_of_range(self, mission):
        swarm, m2, original = mission
        with pytest.raises(PlanningError):
            replan_after_failure(
                original, FailureEvent(time=5.0, failed=(0,)), m2,
                swarm.radio.comm_range,
            )

    def test_bad_robot_id(self, mission):
        swarm, m2, original = mission
        with pytest.raises(PlanningError):
            replan_after_failure(
                original, FailureEvent(time=0.5, failed=(999,)), m2,
                swarm.radio.comm_range,
            )

    def test_too_few_survivors(self, mission):
        swarm, m2, original = mission
        everyone = tuple(range(swarm.size - 2))
        with pytest.raises(PlanningError):
            replan_after_failure(
                original, FailureEvent(time=0.5, failed=everyone), m2,
                swarm.radio.comm_range,
            )

    def test_disconnection_detected(self, mission):
        """Killing a whole neighbourhood can split the survivors; the
        replanner must refuse rather than silently abandon a subgroup."""
        swarm, m2, original = mission
        # Fail every robot in a vertical band through the swarm's middle
        # at t=0 (still in M1, lattice structure known).
        xs = original.start_positions[:, 0]
        lo, hi = np.quantile(xs, [0.4, 0.6])
        band = tuple(int(i) for i in np.flatnonzero((xs >= lo) & (xs <= hi)))
        if len(band) >= swarm.size - 4:
            pytest.skip("band too wide for this lattice")
        try:
            outcome = replan_after_failure(
                original, FailureEvent(time=0.0, failed=band), m2,
                swarm.radio.comm_range, config=FAST,
            )
        except PlanningError as err:
            assert "disconnected" in str(err)
        else:
            # Geometry may keep survivors connected around the band;
            # then the recovery must simply succeed.
            assert outcome.survivors_connected


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_replan_is_the_one_crash_recovery_step():
    """Only ``marching/replan.py`` remaps crash instants or checks the
    survivors: every other module that handles a crash (the resilient
    executor, the mission runner) goes through ``freeze_crash``."""
    remappers, survivor_graphs = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name == "marching/replan.py":
            continue
        text = path.read_text()
        if "_remap_event_time" in text:
            remappers.append(name)
        if re.search(r"\b(CrashFault|FailureEvent|freeze_crash)\b", text) and (
            "UnitDiskGraph" in text
        ):
            survivor_graphs.append(name)
    assert remappers == []
    assert survivor_graphs == []
