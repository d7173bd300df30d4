"""Tests for cascading (multi-event) replan_after_failure."""

import dataclasses

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.errors import PlanningError
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.marching import (
    CascadeOutcome,
    FailureEvent,
    MarchingConfig,
    MarchingPlanner,
    replan_after_failure,
    validate_failure_sequence,
)
from repro.marching.replan import _remap_event_time
from repro.metrics import connectivity_report
from repro.robots import RadioSpec, Swarm
from repro.robots import stepwise_trajectory

FAST = MarchingConfig(
    foi_target_points=150,
    lloyd=LloydConfig(grid_target=500, max_iterations=8),
)


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


class TestValidation:
    def test_empty_sequence_rejected(self):
        with pytest.raises(PlanningError):
            validate_failure_sequence([], 0.0, 1.0)

    def test_unordered_times_rejected(self):
        events = [
            FailureEvent(time=0.6, failed=(1,)),
            FailureEvent(time=0.3, failed=(2,)),
        ]
        with pytest.raises(PlanningError):
            validate_failure_sequence(events, 0.0, 1.0)

    def test_equal_times_rejected(self):
        events = [
            FailureEvent(time=0.5, failed=(1,)),
            FailureEvent(time=0.5, failed=(2,)),
        ]
        with pytest.raises(PlanningError):
            validate_failure_sequence(events, 0.0, 1.0)

    def test_event_after_T_rejected(self):
        events = [FailureEvent(time=1.5, failed=(1,))]
        with pytest.raises(PlanningError):
            validate_failure_sequence(events, 0.0, 1.0)

    def test_double_death_rejected(self):
        events = [
            FailureEvent(time=0.3, failed=(1, 2)),
            FailureEvent(time=0.6, failed=(2,)),
        ]
        with pytest.raises(PlanningError):
            validate_failure_sequence(events, 0.0, 1.0)

    def test_valid_sequence_returned_as_tuple(self):
        events = [
            FailureEvent(time=0.3, failed=(1,)),
            FailureEvent(time=0.6, failed=(2,)),
        ]
        out = validate_failure_sequence(events, 0.0, 1.0)
        assert out == tuple(events)

    def test_replan_rejects_bad_sequences(self, mission):
        swarm, m2, original = mission
        with pytest.raises(PlanningError):
            replan_after_failure(
                original, [], m2, swarm.radio.comm_range, config=FAST
            )
        with pytest.raises(PlanningError):
            replan_after_failure(
                original,
                [FailureEvent(time=2.0, failed=(1,))],
                m2,
                swarm.radio.comm_range,
                config=FAST,
            )

    def test_replan_rejects_out_of_range_ids(self, mission):
        swarm, m2, original = mission
        with pytest.raises(PlanningError):
            replan_after_failure(
                original,
                [FailureEvent(time=0.4, failed=(999,))],
                m2,
                swarm.radio.comm_range,
                config=FAST,
            )


class TestCascade:
    def test_two_event_cascade(self, mission):
        swarm, m2, original = mission
        events = [
            FailureEvent(time=0.3, failed=(3,)),
            FailureEvent(time=0.7, failed=(10, 11)),
        ]
        outcome = replan_after_failure(
            original, events, m2, swarm.radio.comm_range, config=FAST
        )
        assert isinstance(outcome, CascadeOutcome)
        assert outcome.replan_count == 2
        assert len(outcome.survivor_ids) == swarm.size - 3
        for dead in (3, 10, 11):
            assert dead not in outcome.survivor_ids
        # The final plan delivers the full guarantee for the survivors.
        rep = connectivity_report(
            outcome.result.trajectory,
            swarm.radio.comm_range,
            outcome.result.boundary_anchors,
            8,
        )
        assert rep.connected
        assert m2.contains(outcome.result.final_positions).all()

    def test_single_event_list_matches_single_event(self, mission):
        swarm, m2, original = mission
        event = FailureEvent(time=0.4, failed=(5,))
        single = replan_after_failure(
            original, event, m2, swarm.radio.comm_range, config=FAST
        )
        cascade = replan_after_failure(
            original, [event], m2, swarm.radio.comm_range, config=FAST
        )
        assert isinstance(cascade, CascadeOutcome)
        assert cascade.replan_count == 1
        assert np.array_equal(
            np.sort(cascade.survivor_ids), np.sort(single.survivor_ids)
        )
        assert cascade.result.total_distance == pytest.approx(
            single.result.total_distance
        )

    def test_survivor_ids_map_back_to_original(self, mission):
        swarm, m2, original = mission
        events = [
            FailureEvent(time=0.2, failed=(0,)),
            FailureEvent(time=0.5, failed=(1,)),
            FailureEvent(time=0.8, failed=(2,)),
        ]
        outcome = replan_after_failure(
            original, events, m2, swarm.radio.comm_range, config=FAST
        )
        assert outcome.replan_count == 3
        expected = np.array(
            [i for i in range(swarm.size) if i not in (0, 1, 2)]
        )
        assert np.array_equal(np.sort(outcome.survivor_ids), expected)
        # Step chaining: each step starts where the previous plan stood.
        assert len(outcome.steps) == 3
        assert outcome.result is outcome.steps[-1].result


class TestEdgeWindows:
    """Failures at the very end of a plan and degenerate windows."""

    def test_remap_proportional_midpoint(self):
        assert _remap_event_time(0.5, 0.0, 1.0, 10.0, 20.0) == 15.0

    def test_remap_zero_length_window_maps_to_span_end(self):
        # The march is over: the event observes final positions, it
        # must not rewind the survivors to the fresh plan's start.
        assert _remap_event_time(0.7, 0.7, 0.7, 10.0, 20.0) == 20.0
        assert _remap_event_time(0.7, 0.9, 0.7, 10.0, 20.0) == 20.0

    def test_remap_clamps_float_roundoff(self):
        assert _remap_event_time(1.0 + 1e-12, 0.0, 1.0, 10.0, 20.0) == 20.0
        assert _remap_event_time(-1e-12, 0.0, 1.0, 10.0, 20.0) == 10.0

    def test_single_event_exactly_at_T(self, mission):
        swarm, m2, original = mission
        t_end = original.trajectory.t_end
        outcome = replan_after_failure(
            original,
            FailureEvent(time=t_end, failed=(7,)),
            m2,
            swarm.radio.comm_range,
            config=FAST,
        )
        # The survivors replan from the original plan's final positions.
        final = original.trajectory.positions_at(t_end)
        survivors = np.array([i for i in range(swarm.size) if i != 7])
        assert np.allclose(outcome.positions_at_failure, final[survivors])
        assert outcome.survivors_connected

    def test_cascade_event_exactly_at_T(self, mission):
        swarm, m2, original = mission
        t_end = original.trajectory.t_end
        events = [
            FailureEvent(time=0.5 * t_end, failed=(3,)),
            FailureEvent(time=t_end, failed=(4,)),
        ]
        outcome = replan_after_failure(
            original, events, m2, swarm.radio.comm_range, config=FAST
        )
        assert outcome.replan_count == 2
        # The second event lands exactly at the end of the first fresh
        # plan's span - never beyond it.
        first_plan = outcome.steps[0].result
        assert outcome.steps[1].event.time == first_plan.trajectory.t_end
        assert len(outcome.survivor_ids) == swarm.size - 2

    def test_cascade_on_zero_duration_trajectory(self, mission):
        swarm, m2, original = mission
        # A degenerate plan whose whole span is one instant: the
        # remaining window is zero-length from the start.
        frozen = dataclasses.replace(
            original,
            trajectory=stepwise_trajectory([original.final_positions], 0.0, 0.0),
        )
        outcome = replan_after_failure(
            frozen,
            [FailureEvent(time=0.0, failed=(5,))],
            m2,
            swarm.radio.comm_range,
            config=FAST,
        )
        assert outcome.replan_count == 1
        step = outcome.steps[0]
        assert step.event.time == 0.0
        survivors = np.array([i for i in range(swarm.size) if i != 5])
        assert np.allclose(
            step.positions_at_failure, original.final_positions[survivors]
        )
