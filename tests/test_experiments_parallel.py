"""Determinism tests: parallel fan-out and caching must not change results.

The acceptance bar for the execution engine: a sweep produces
byte-identical payloads for ``workers=1`` and ``workers=2+``, and for
cache-cold vs cache-warm runs, while worker spans and metrics merge
back into the parent observability registry.
"""

import json

import pytest

from repro.exec import ContentCache, activate_cache, disk_backed_cache
from repro.experiments import (
    get_scenario,
    run_scenario,
    run_scenarios,
    sweep_separations,
    write_sweep_figures,
)
from repro.obs import Metrics, Tracer, activate, activate_metrics

# Small knobs: full pipeline, low resolution, two methods.
KW = dict(foi_target_points=200, lloyd_grid_target=600, resolution=12)
METHODS = ("ours (a)", "Hungarian")
SEPS = (10.0, 20.0)


def payload(sweep) -> bytes:
    """Canonical byte serialization of a SweepResult."""
    doc = {
        "scenario": sweep.scenario_id,
        "points": [
            {
                "separation": p.separation_factor,
                "distance_ratio": p.distance_ratio,
                "stable_link_ratio": p.stable_link_ratio,
                "connected": p.connected,
            }
            for p in sweep.points
        ],
    }
    return json.dumps(doc, sort_keys=True).encode()


@pytest.fixture(scope="module")
def sweeps():
    """The same small sweep, serial and with two worker processes."""
    spec = get_scenario(1)
    with activate(Tracer()), activate_metrics(Metrics()), \
            activate_cache(ContentCache()):
        serial = sweep_separations(spec, SEPS, METHODS, workers=1, **KW)
    tracer = Tracer()
    metrics = Metrics()
    with activate(tracer), activate_metrics(metrics), \
            activate_cache(ContentCache()):
        parallel = sweep_separations(
            spec, SEPS, METHODS, workers=2, **KW
        )
    return serial, parallel, tracer, metrics


class TestWorkerCountDeterminism:
    def test_sweep_payload_byte_identical(self, sweeps):
        serial, parallel, _, _ = sweeps
        assert payload(serial) == payload(parallel)

    def test_figure_bytes_identical(self, sweeps, tmp_path):
        serial, parallel, _, _ = sweeps
        a = write_sweep_figures(serial, tmp_path / "serial", METHODS)
        b = write_sweep_figures(parallel, tmp_path / "parallel", METHODS)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_worker_spans_merge_into_parent(self, sweeps):
        _, _, tracer, _ = sweeps
        worker_spans = [
            r
            for r in tracer.get_trace()
            if r.attributes.get("origin") == "exec.worker"
        ]
        assert worker_spans
        names = {r.name for r in worker_spans}
        assert "experiment.run_scenario" in names
        assert {r.attributes["task_index"] for r in worker_spans} == {0, 1}
        # Merged spans also feed the aggregate phase table.
        assert tracer.phase_timings()["experiment.run_scenario"]["calls"] == 2

    def test_worker_metrics_merge_into_parent(self, sweeps):
        _, _, _, metrics = sweeps
        assert metrics.counter("exec.tasks_submitted").value == 2
        assert metrics.counter("exec.tasks_completed").value == 2
        # The disk-map cache counters travelled back from the workers.
        assert any(
            name.startswith("cache.harmonic.diskmap.")
            for name in metrics.snapshot()
        )


class TestCacheDeterminism:
    def test_cold_vs_warm_byte_identical(self, tmp_path):
        spec = get_scenario(1)
        with activate_metrics(Metrics()), \
                activate_cache(disk_backed_cache(tmp_path)):
            cold = run_scenario(spec, 10.0, METHODS, **KW)
        warm_metrics = Metrics()
        # A fresh ContentCache over the same directory models a new
        # process reusing --cache-dir: memory cold, disk warm.
        with activate_metrics(warm_metrics), \
                activate_cache(disk_backed_cache(tmp_path)):
            warm = run_scenario(spec, 10.0, METHODS, **KW)
        assert (
            warm_metrics.counter("cache.harmonic.diskmap.disk_hits").value > 0
        )
        for m in METHODS:
            c, w = cold.evaluations[m], warm.evaluations[m]
            assert c.total_distance == w.total_distance
            assert c.stable_link_ratio == w.stable_link_ratio
            assert c.final_positions.tobytes() == w.final_positions.tobytes()


class TestRunScenariosParallel:
    def test_matches_serial(self):
        specs = [get_scenario(1), get_scenario(2)]
        with activate_metrics(Metrics()), activate_cache(ContentCache()):
            serial = run_scenarios(specs, 10.0, METHODS, workers=1, **KW)
        with activate_metrics(Metrics()), activate_cache(ContentCache()):
            parallel = run_scenarios(
                specs, 10.0, METHODS, workers=2, **KW
            )
        assert sorted(serial) == sorted(parallel) == [1, 2]
        for sid in serial:
            for m in METHODS:
                s, p = serial[sid].evaluations[m], parallel[sid].evaluations[m]
                assert s.total_distance == p.total_distance
                assert s.stable_link_ratio == p.stable_link_ratio
                assert s.globally_connected == p.globally_connected
