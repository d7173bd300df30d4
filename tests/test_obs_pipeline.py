"""Pipeline-level observability: stage spans, metrics and the CLI trace."""

import pytest

from repro.cli import main
from repro.coverage import LloydConfig
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.marching import MarchingConfig, MarchingPlanner
from repro.obs import Metrics, Tracer, activate, activate_metrics, read_jsonl
from repro.robots import RadioSpec, Swarm

FAST = MarchingConfig(
    foi_target_points=180,
    lloyd=LloydConfig(grid_target=600, max_iterations=15),
)

# The planner's Fig. 2 stages, in execution order.
PLAN_STAGES = [
    "plan.extract_triangulation",
    "plan.disk_map_t",
    "plan.triangulate_foi",
    "plan.disk_map_m2",
    "plan.rotation_search",
    "plan.repair",
    "plan.adjust",
    "plan.march",
]


@pytest.fixture(scope="module")
def small_setup():
    radio = RadioSpec.from_comm_range(80.0)
    m1 = FieldOfInterest(
        ellipse_polygon(1.0, 1.0, samples=32).scaled_to_area(100_000.0),
        name="m1",
    )
    swarm = Swarm.deploy_lattice(m1, 36, radio)
    m2 = FieldOfInterest(
        ellipse_polygon(1.1, 0.9, samples=32).scaled_to_area(95_000.0),
        name="m2",
    ).translated((900.0, 100.0))
    return swarm, m2


class TestPlannerSpans:
    def test_stage_spans_in_order(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        with activate(tracer):
            MarchingPlanner(FAST).plan(swarm, m2)
        names = tracer.span_names()
        stage_names = [n for n in names if n.startswith("plan.")]
        assert stage_names == PLAN_STAGES
        # The nested layers are traced too: both disk maps run the
        # sparse solver, the extraction runs Delaunay.
        assert tracer.call_count("harmonic.disk_map") == 2
        assert tracer.call_count("harmonic.solve_linear") == 2
        assert tracer.call_count("mesh.delaunay") >= 1
        assert tracer.call_count("harmonic.rotation_search") == 1

    def test_stage_spans_nest_under_their_stage(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        with activate(tracer):
            MarchingPlanner(FAST).plan(swarm, m2)
        by_id = {r.span_id: r for r in tracer.get_trace()}
        search = next(
            r for r in tracer.get_trace() if r.name == "harmonic.rotation_search"
        )
        assert by_id[search.parent_id].name == "plan.rotation_search"
        assert search.attributes["evaluations"] == 4 + 2 * 4 + 1

    def test_adjust_child_spans_nest_under_adjust(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        with activate(tracer):
            result = MarchingPlanner(FAST).plan(swarm, m2)
        records = tracer.get_trace()
        by_id = {r.span_id: r for r in records}
        for name in ("adjust.assign", "adjust.safe_step"):
            children = [r for r in records if r.name == name]
            # One of each per Lloyd iteration.
            assert len(children) == result.lloyd_iterations
            assert {by_id[r.parent_id].name for r in children} == {"plan.adjust"}

    def test_rotation_attributes_and_metrics(self, small_setup):
        swarm, m2 = small_setup
        metrics = Metrics()
        with activate_metrics(metrics):
            result = MarchingPlanner(FAST).plan(swarm, m2)
        counted = metrics.counter("rotation.objective_evaluations").value
        assert counted == result.rotation_evaluations

    def test_planning_untraced_records_nothing(self, small_setup):
        swarm, m2 = small_setup
        tracer = Tracer()
        MarchingPlanner(FAST).plan(swarm, m2)  # tracer never activated
        assert tracer.get_trace() == []


class TestCliTrace:
    def test_plan_trace_covers_every_stage(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            ["plan", "3", "--points", "240", "--trace", str(out)]
        )
        assert code == 0
        events = read_jsonl(out)
        spans = [e for e in events if e["type"] == "span"]
        names = {s["name"] for s in spans}
        for stage in PLAN_STAGES + ["pipeline.run"]:
            assert stage in names, f"missing span {stage}"
        for s in spans:
            assert s["duration_s"] is not None and s["duration_s"] >= 0.0
        assert any(e["type"] == "metric" for e in events)
        captured = capsys.readouterr()
        assert "phase timings" in captured.out

    def test_plan_without_trace_writes_nothing(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["plan", "3", "--points", "240"])
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        assert "phase timings" not in capsys.readouterr().out
