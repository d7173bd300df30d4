"""Property test: the resilient executor has exactly two outcomes.

For ANY seeded random fault schedule, the executor either returns a
recovered report whose survivors form a connected network at every
sampled instant of the post-replan trajectory, or raises a typed
:class:`UnrecoverableError`.  No third outcome, no silent partial
recovery, no hang (every internal loop and protocol run is bounded, so
simply completing each example is part of the property).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coverage import LloydConfig
from repro.errors import UnrecoverableError
from repro.faults import ResilientExecutor, random_schedule
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.marching import MarchingConfig, MarchingPlanner
from repro.metrics import connectivity_report
from repro.robots import RadioSpec, Swarm

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
    original = MarchingPlanner(FAST).plan(swarm, m2)
    return swarm, m2, original


class TestBinaryOutcome:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_recovered_or_typed_error(self, mission, seed):
        swarm, m2, original = mission
        schedule = random_schedule(swarm.size, seed=seed)
        try:
            report = ResilientExecutor(FAST, resolution=8).execute(
                swarm, m2, schedule, original=original
            )
        except UnrecoverableError as exc:
            # The typed outcome: a stage name and a survivor count,
            # never a bare crash or a hang.
            assert exc.stage in ("survivors", "rejoin", "consensus", "replan")
            assert exc.survivors >= 0
            return
        # The recovered outcome: every fault processed, survivors
        # consistent, and C = 1 at every sampled instant of the final
        # (post-replan) trajectory - verified here independently of the
        # executor's own check.
        assert report.outcome == "recovered"
        assert report.metrics.connected_all
        assert report.metrics.survivor_count == len(report.survivor_ids)
        assert report.metrics.survivor_count + report.metrics.lost_robots == (
            swarm.size
        )
        assert set(report.survivor_ids).isdisjoint(schedule.crashed_ids)
        rep = connectivity_report(
            report.final_result.trajectory,
            swarm.radio.comm_range,
            report.final_result.boundary_anchors,
            8,
        )
        assert rep.connected

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_seed_same_outcome(self, mission, seed):
        swarm, m2, original = mission
        schedule = random_schedule(swarm.size, seed=seed, max_events=2)

        def one_run():
            try:
                report = ResilientExecutor(FAST, resolution=8).execute(
                    swarm, m2, schedule, original=original
                )
                return ("recovered", report.to_dict())
            except UnrecoverableError as exc:
                return ("unrecoverable", exc.stage, exc.survivors)

        assert one_run() == one_run()
