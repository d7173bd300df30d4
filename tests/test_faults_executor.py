"""Tests for the resilient executor: recovery, metrics, typed failure."""

import hashlib

import numpy as np
import pytest

from repro.coverage import LloydConfig
from repro.distributed import LinkFaults
from repro.errors import UnrecoverableError
from repro.faults import (
    CrashFault,
    FaultSchedule,
    ResilientExecutor,
    SlowFault,
    StuckFault,
    build_archetype_schedule,
    rejoin_components,
)
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.io import dumps_canonical
from repro.marching import MarchingConfig, MarchingPlanner
from repro.metrics import connectivity_report
from repro.network import UnitDiskGraph
from repro.obs import Metrics, activate_metrics
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


def run(mission, schedule, **kwargs):
    swarm, m2, original = mission
    return ResilientExecutor(FAST, resolution=8).execute(
        swarm, m2, schedule, original=original, **kwargs
    )


class TestRecovery:
    def test_single_crash_recovers(self, mission):
        swarm, m2, original = mission
        schedule = FaultSchedule(
            crashes=(CrashFault(at=0.4, robots=(7,)),)
        )
        report = run(mission, schedule)
        assert report.outcome == "recovered"
        assert report.metrics.replan_count == 1
        assert report.metrics.lost_robots == 1
        assert 7 not in report.survivor_ids
        assert len(report.survivor_ids) == swarm.size - 1
        # Definition-2 holds over the survivors' executed plan.
        rep = connectivity_report(
            report.final_result.trajectory,
            swarm.radio.comm_range,
            report.final_result.boundary_anchors,
            8,
        )
        assert rep.connected
        assert report.metrics.connected_all

    def test_cascading_crashes(self, mission):
        swarm, _, _ = mission
        schedule = FaultSchedule(
            crashes=(
                CrashFault(at=0.2, robots=(3,)),
                CrashFault(at=0.5, robots=(10, 11)),
                CrashFault(at=0.8, robots=(20,)),
            )
        )
        report = run(mission, schedule)
        assert report.outcome == "recovered"
        assert report.metrics.replan_count == 3
        assert report.metrics.lost_robots == 4
        marches = [s for s in report.segments if s.kind == "march"]
        assert len(marches) == 4  # three partial legs + the final one

    def test_redeath_is_noop(self, mission):
        """A robot named by a later crash after it already died is
        skipped, not an error (random schedules may overlap)."""
        schedule = FaultSchedule(
            crashes=(
                CrashFault(at=0.3, robots=(5,)),
                CrashFault(at=0.6, robots=(5, 9)),
            )
        )
        report = run(mission, schedule)
        assert report.outcome == "recovered"
        assert report.metrics.lost_robots == 2

    def test_empty_schedule_flies_baseline(self, mission):
        swarm, _, original = mission
        report = run(mission, FaultSchedule())
        assert report.outcome == "recovered"
        assert report.metrics.replan_count == 0
        assert report.metrics.extra_distance == pytest.approx(0.0, abs=1e-6)
        assert report.metrics.executed_distance == pytest.approx(
            original.total_distance
        )
        assert len(report.survivor_ids) == swarm.size

    def test_crash_cutting_the_survivors_rejoins_then_replans(self, mission):
        """A band of robots across the lattice dies at 10% of the march:
        the survivors split 16/13, are escorted back together, and the
        rejoined fleet replans with C = 1 on the replanned leg."""
        swarm, m2, original = mission
        band = (1, 5, 11, 16, 22, 28, 33)
        traj = original.trajectory
        frozen = traj.positions_at(traj.t_start + 0.1 * traj.duration)
        survivors = [k for k in range(swarm.size) if k not in band]
        assert not UnitDiskGraph(
            frozen[survivors], swarm.radio.comm_range
        ).is_connected()

        report = run(
            mission, FaultSchedule(crashes=(CrashFault(at=0.1, robots=band),))
        )
        assert report.outcome == "recovered"
        assert report.metrics.rejoin_count >= 1
        assert [s.kind for s in report.segments] == ["march", "rejoin", "march"]
        assert report.segments[-1].connectivity.connected
        assert report.final_result.robot_count == swarm.size - len(band)
        digest = hashlib.sha256(dumps_canonical(report.to_dict())).hexdigest()
        assert digest == (
            "f915da34b98569bbbaeda5819f6675afdf49645d1cee26d676319d0ed17741a1"
        )

    def test_deterministic(self, mission):
        schedule = build_archetype_schedule(
            "cascade", mission[0].positions, seed=3
        )
        a = run(mission, schedule)
        b = run(mission, schedule)
        assert a.to_dict() == b.to_dict()


class TestTimeFaults:
    def test_stuck_costs_time_not_distance(self, mission):
        schedule = FaultSchedule(
            stucks=(StuckFault(at=0.3, robots=(2, 3), duration=0.2),)
        )
        report = run(mission, schedule)
        assert report.outcome == "recovered"
        assert report.metrics.replan_count == 0
        assert report.metrics.time_to_recover == pytest.approx(
            0.2 * mission[2].trajectory.duration
        )
        assert report.metrics.extra_distance == pytest.approx(0.0, abs=1e-6)

    def test_slow_dilates_window(self, mission):
        schedule = FaultSchedule(
            slows=(SlowFault(at=0.3, robots=(2,), factor=0.5, duration=0.2),)
        )
        report = run(mission, schedule)
        # Half speed for a 0.2-fraction window doubles its duration.
        assert report.metrics.time_to_recover == pytest.approx(
            0.2 * mission[2].trajectory.duration
        )


class TestUnrecoverable:
    def test_too_few_survivors_is_typed(self, mission):
        swarm, _, _ = mission
        schedule = FaultSchedule(
            crashes=(
                CrashFault(at=0.4, robots=tuple(range(swarm.size - 2))),
            )
        )
        with pytest.raises(UnrecoverableError) as err:
            run(mission, schedule)
        assert err.value.stage == "survivors"
        assert err.value.survivors == 2

    def test_consensus_failure_is_typed(self, mission):
        # Crash a consensus participant at round 0 of every recovery
        # consensus: the roster can never complete, both attempts go
        # quiet incomplete, and the executor refuses loudly.
        schedule = FaultSchedule(
            crashes=(CrashFault(at=0.4, robots=(7,)),),
            comms=LinkFaults(crash_at={0: [0]}),
        )
        with pytest.raises(UnrecoverableError) as err:
            run(mission, schedule)
        assert err.value.stage == "consensus"

    def test_consensus_survives_storm_comms(self, mission):
        schedule = build_archetype_schedule(
            "storm", mission[0].positions, seed=1
        )
        report = run(mission, schedule)
        assert report.outcome == "recovered"
        assert report.metrics.consensus_rounds > 0


class TestRejoinComponents:
    def test_two_components_merge(self):
        left = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        right = left + np.array([100.0, 0.0])
        pos = np.vstack([left, right])
        merged, dist, longest = rejoin_components(pos, comm_range=12.0)
        assert UnitDiskGraph(merged, 12.0).is_connected()
        assert dist > 0
        assert longest > 0
        # The escorted component moved rigidly: internal distances kept.
        def gaps(p):
            return np.round(np.diff(p[:, 0]), 9)
        assert (gaps(merged[3:]) == gaps(right)).all()

    def test_connected_input_is_untouched(self):
        pos = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        merged, dist, longest = rejoin_components(pos, comm_range=12.0)
        assert (merged == pos).all()
        assert dist == 0.0 and longest == 0.0

    def test_three_components_merge(self):
        pos = np.array([
            [0.0, 0.0], [5.0, 0.0],
            [200.0, 0.0], [205.0, 0.0],
            [0.0, 200.0], [5.0, 200.0],
        ])
        merged, dist, _ = rejoin_components(pos, comm_range=10.0)
        assert UnitDiskGraph(merged, 10.0).is_connected()
        assert dist > 0


class TestObsAndReport:
    def test_recovery_gauges_emitted(self, mission):
        metrics = Metrics()
        schedule = FaultSchedule(crashes=(CrashFault(at=0.4, robots=(7,)),))
        with activate_metrics(metrics):
            run(mission, schedule)
        snap = metrics.snapshot()
        assert snap["faults.missions_recovered"]["value"] == 1
        assert snap["faults.replans"]["value"] == 1
        assert "faults.extra_distance" in snap
        assert "faults.time_to_recover" in snap

    def test_report_to_dict_is_plain_json(self, mission):
        import json

        schedule = FaultSchedule(crashes=(CrashFault(at=0.4, robots=(7,)),))
        report = run(mission, schedule)
        doc = report.to_dict()
        json.dumps(doc)  # must not raise
        assert doc["outcome"] == "recovered"
        assert doc["metrics"]["replan_count"] == 1
        assert any(s["kind"] == "march" for s in doc["segments"])

    def test_executor_plans_when_no_original_given(self, mission):
        swarm, m2, original = mission
        executor = ResilientExecutor(config=FAST, resolution=8)
        report = executor.execute(swarm, m2, FaultSchedule())
        assert report.outcome == "recovered"
        assert report.metrics.baseline_distance == pytest.approx(
            original.total_distance, rel=0.05
        )
