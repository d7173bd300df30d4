"""Tests for the chaos sweep: determinism, aggregation, CLI."""

import json

import pytest

from repro.experiments.chaos import (
    _PLAN_CACHE,
    _PLAN_CACHE_CAPACITY,
    ChaosCase,
    ChaosConfig,
    _baseline,
    chaos_sweep,
    render_chaos,
    run_chaos_case,
)
from repro.io import dumps_canonical

SMALL = ChaosConfig(robot_count=81)
MATRIX = dict(
    scenario_ids=(1,), archetypes=("single", "cluster"), seeds=(0,),
    config=SMALL,
)


@pytest.fixture(scope="module")
def sweep():
    return chaos_sweep(workers=1, **MATRIX)


class TestSweep:
    def test_matrix_order_and_shape(self, sweep):
        cases = sweep["cases"]
        assert [(c["scenario_id"], c["archetype"]) for c in cases] == [
            (1, "single"), (1, "cluster"),
        ]
        assert sweep["summary"]["cases"] == 2

    def test_every_case_has_binary_outcome(self, sweep):
        for case in sweep["cases"]:
            assert case["outcome"] in ("recovered", "unrecoverable")
            if case["outcome"] == "recovered":
                assert case["metrics"]["connected_all"]
            else:
                assert case["stage"]

    def test_summary_is_canonical_json(self, sweep):
        payload = dumps_canonical(sweep)
        assert json.loads(payload) == sweep

    def test_same_seed_byte_identical(self, sweep):
        again = chaos_sweep(workers=1, **MATRIX)
        assert dumps_canonical(again) == dumps_canonical(sweep)

    def test_workers_do_not_change_bytes(self, sweep):
        parallel = chaos_sweep(workers=2, **MATRIX)
        assert dumps_canonical(parallel) == dumps_canonical(sweep)

    def test_render_mentions_every_case(self, sweep):
        text = render_chaos(sweep)
        assert "single" in text and "cluster" in text
        assert "recovered" in text

    def test_single_case_document(self):
        doc = run_chaos_case(
            ChaosCase(scenario_id=1, archetype="single", seed=0),
            config=SMALL,
        )
        assert doc["outcome"] in ("recovered", "unrecoverable")
        assert doc["robots"] == SMALL.robot_count

    def test_plan_cache_is_bounded(self):
        """More distinct baselines than the capacity must not grow the
        memo past it; the least recently used entry goes first."""
        _PLAN_CACHE.clear()
        configs = [
            ChaosConfig(
                robot_count=64, foi_target_points=100, grid_target=300,
                resolution=r,
            )
            for r in range(1, _PLAN_CACHE_CAPACITY + 2)
        ]
        for config in configs:
            _baseline(1, config)
        assert len(_PLAN_CACHE) == _PLAN_CACHE_CAPACITY
        assert (1, configs[0]) not in _PLAN_CACHE
        assert (1, configs[-1]) in _PLAN_CACHE
        _PLAN_CACHE.clear()


class TestChaosCli:
    def test_cli_writes_summary(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "chaos.json"
        code = main([
            "chaos",
            "--scenarios", "1",
            "--archetypes", "single",
            "--seeds", "0",
            "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_bytes())
        assert doc["summary"]["cases"] == 1
        assert doc["cases"][0]["archetype"] == "single"

    def test_cli_rejects_unknown_archetype(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--archetypes", "meteor"])
        assert code == 2
        assert "meteor" in capsys.readouterr().err
