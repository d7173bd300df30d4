"""Unit tests for the scenario zoo: families, validation, campaigns."""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ScenarioError
from repro.experiments.zoo import (
    FAMILIES,
    INVARIANTS,
    ZooCase,
    ZooConfig,
    ZooParams,
    assert_deployable,
    build_foi,
    build_zoo_scenario,
    draw_params,
    family_rng,
    hole_clearance,
    mild_params,
    render_zoo,
    replay_counterexample,
    run_zoo_case,
    shrink_hole_to_clearance,
    validate_foi,
    zoo_campaign,
)
from repro.experiments.zoo import campaign as campaign_module
from repro.io import dumps_canonical
from repro.foi.shapes import ellipse_polygon, radial_blob

UNIT_CONFIG = ZooConfig(
    robot_count=25, foi_target_points=120, grid_target=400, shrink=False
)


class TestFamilies:
    def test_five_families(self):
        assert len(FAMILIES) >= 5

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_family_builds_valid_geometry(self, family, seed):
        foi, params = build_foi(family, seed)
        assert params == draw_params(family, seed)
        report = validate_foi(foi)
        assert report.ok, f"{family}[{seed}]: {report.failures}"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_reproducible_from_family_and_seed(self, family):
        a, pa = build_foi(family, seed=4)
        b, pb = build_foi(family, seed=4)
        assert pa == pb
        assert np.array_equal(a.outer.vertices, b.outer.vertices)
        assert len(a.holes) == len(b.holes)
        for x, y in zip(a.holes, b.holes):
            assert np.array_equal(x.vertices, y.vertices)

    def test_different_seeds_differ(self):
        a, _ = build_foi("star", 0)
        b, _ = build_foi("star", 1)
        assert not np.array_equal(a.outer.vertices, b.outer.vertices)

    def test_family_rng_streams_independent(self):
        a = family_rng("star", 0, 1).uniform(size=4)
        b = family_rng("star", 0, 2).uniform(size=4)
        assert not np.allclose(a, b)

    def test_family_rng_family_tagged(self):
        a = family_rng("star", 0).uniform(size=4)
        b = family_rng("rough", 0).uniform(size=4)
        assert not np.allclose(a, b)

    def test_unknown_family_rejected(self):
        with pytest.raises(ScenarioError, match="family"):
            build_foi("moebius", 0)

    @pytest.mark.parametrize(
        "bad",
        [
            ZooParams(lobes=0),
            ZooParams(hole_count=-1),
            ZooParams(roughness=1.5),
            ZooParams(min_corridor_width=0.0),
        ],
    )
    def test_nonsense_params_rejected(self, bad):
        with pytest.raises(ScenarioError):
            build_foi("corridor", 0, params=bad)

    def test_annulus_family_produces_true_annulus(self):
        # At least one small seed must draw the holed variant.
        holed = [build_foi("annulus", s)[0].has_holes for s in range(8)]
        assert any(holed)

    def test_mild_params_are_milder(self):
        params = ZooParams(
            lobes=3, hole_count=2, hole_area_fraction=0.1, roughness=0.4,
            min_corridor_width=0.15,
        )
        variants = mild_params("rough", params)
        assert variants
        for v in variants:
            assert (
                v.hole_count < params.hole_count
                or v.roughness < params.roughness
                or v.lobes < params.lobes
                or v.min_corridor_width > params.min_corridor_width
            )


class TestZooParams:
    def test_round_trip(self):
        p = ZooParams(lobes=2, hole_count=1, hole_area_fraction=0.05,
                      roughness=0.3, min_corridor_width=0.18)
        assert ZooParams.from_dict(p.to_dict()) == p

    def test_from_dict_malformed(self):
        with pytest.raises(ScenarioError):
            ZooParams.from_dict({"lobes": "many"})

    def test_dict_is_json_plain(self):
        d = draw_params("corridor", 7).to_dict()
        assert json.loads(json.dumps(d)) == d


class TestValidate:
    OUTER = radial_blob({})

    def test_hole_clearance_escaping_hole(self):
        escaped = ellipse_polygon(0.3, 0.3, samples=16, center=(1.0, 0.0))
        assert hole_clearance(self.OUTER, escaped) == float("-inf")

    def test_shrink_returns_unchanged_when_clear(self):
        hole = ellipse_polygon(0.1, 0.1, samples=16)
        out = shrink_hole_to_clearance(self.OUTER, hole, 0.1)
        assert out is not None
        assert np.array_equal(out.vertices, hole.vertices)

    def test_shrink_negative_clearance_rejected(self):
        hole = ellipse_polygon(0.1, 0.1, samples=16)
        with pytest.raises(ScenarioError):
            shrink_hole_to_clearance(self.OUTER, hole, -0.5)

    def test_shrink_impossible_returns_none(self):
        hole = ellipse_polygon(0.2, 0.2, samples=16, center=(0.9, 0.0))
        assert shrink_hole_to_clearance(self.OUTER, hole, 2.0) is None

    def test_validate_foi_flags_pinched_hole(self):
        from repro.foi.region import FieldOfInterest

        near = ellipse_polygon(0.2, 0.2, samples=16, center=(0.75, 0.0))
        foi = FieldOfInterest(self.OUTER, [near])
        report = validate_foi(foi, min_clearance=0.2)
        assert not report.ok
        assert "hole_clearance" in report.failures

    def test_reports_pinned_for_every_family_seeds_0_to_9(self):
        # sha256 of the reports as they were while ``holes_disjoint``
        # still re-ran the crossing test, so dropping that pass moved none.
        rows = []
        for family in FAMILIES:
            for seed in range(10):
                foi, _ = build_foi(family, seed, validate=False)
                assert foi.edge_table.crossing_loops() is None
                for clearance in (0.0, 0.3, 3.0):
                    report = validate_foi(foi, min_clearance=clearance)
                    rows.append([family, seed, clearance, report.checks, report.detail])
        blob = json.dumps(rows, sort_keys=True).encode()
        assert sum(not all(row[3].values()) for row in rows) == 19
        assert hashlib.sha256(blob).hexdigest() == (
            "9730a6f4b717622b4ed2cdd5ed0a9a793097aeb14a21c1158a6813df52ad84a6"
        )

    def test_assert_deployable_on_zoo_family(self):
        foi, _ = build_foi("archipelago", 1)
        swarm = assert_deployable(foi, robot_count=16)
        assert swarm.size == 16
        assert swarm.is_connected()


class TestScenarioAndCase:
    def test_build_zoo_scenario_deterministic(self):
        a = build_zoo_scenario("star", 3, UNIT_CONFIG)
        b = build_zoo_scenario("star", 3, UNIT_CONFIG)
        assert np.array_equal(a.swarm.positions, b.swarm.positions)
        assert np.array_equal(a.m2.outer.vertices, b.m2.outer.vertices)

    def test_run_zoo_case_document_shape(self):
        doc = run_zoo_case(ZooCase("corridor", 0), UNIT_CONFIG)
        assert doc["family"] == "corridor"
        assert doc["seed"] == 0
        assert doc["outcome"] in ("pass", "fail", "error")
        for method_doc in doc["methods"].values():
            assert set(method_doc["invariants"]) == set(INVARIANTS)
        assert dumps_canonical(doc) == dumps_canonical(
            run_zoo_case(ZooCase("corridor", 0), UNIT_CONFIG)
        )

    def test_generation_error_is_documented_not_raised(self):
        doc = run_zoo_case(
            ZooCase("corridor", 0, params=ZooParams(lobes=0)), UNIT_CONFIG
        )
        assert doc["outcome"] == "error"
        assert doc["stage"] == "generate"
        assert doc["methods"] == {}


class TestCampaign:
    def test_small_campaign_passes_and_is_byte_stable(self):
        kwargs = dict(
            families=("corridor", "star"),
            seeds=(0, 1),
            config=UNIT_CONFIG,
        )
        serial = zoo_campaign(workers=1, **kwargs)
        pooled = zoo_campaign(workers=2, **kwargs)
        assert dumps_canonical(serial) == dumps_canonical(pooled)
        assert serial["summary"]["all_pass"]
        assert serial["counterexamples"] == []
        for agg in serial["families"].values():
            assert agg["cases"] == 2
            assert agg["passed"] == 2

    def test_unknown_family_rejected(self):
        with pytest.raises(ScenarioError, match="unknown zoo families"):
            zoo_campaign(families=("nonsense",), seeds=(0,), config=UNIT_CONFIG)

    def test_render_zoo_lists_each_family(self):
        summary = zoo_campaign(
            families=("annulus",), seeds=(0,), config=UNIT_CONFIG, workers=1,
        )
        text = render_zoo(summary)
        assert "annulus" in text
        assert "C=1" in text


class TestShrinkAndReplay:
    @pytest.fixture()
    def forced_failure(self, monkeypatch):
        """Make the document invariant fail for every case."""
        real = campaign_module._check_document

        def broken(payload):
            checked = dict(real(payload))
            checked["ok"] = False
            return checked

        monkeypatch.setattr(campaign_module, "_check_document", broken)

    def test_failure_produces_shrunk_replayable_triple(self, forced_failure):
        config = ZooConfig(
            robot_count=25, foi_target_points=120, grid_target=400,
            methods=("ours (a)",), shrink=True, shrink_budget=2,
        )
        summary = zoo_campaign(
            families=("rough",), seeds=(0,), config=config, workers=1,
        )
        assert not summary["summary"]["all_pass"]
        assert summary["counterexamples"]
        entry = summary["counterexamples"][0]
        assert entry["family"] == "rough"
        assert "document" in entry["invariants"]
        # The triple replays byte-identically while the defect persists.
        doc, matches = replay_counterexample(entry, config)
        assert doc["outcome"] == "fail"
        assert matches

    def test_replay_after_fix_reports_divergence(self, monkeypatch):
        real = campaign_module._check_document

        def broken(payload):
            checked = dict(real(payload))
            checked["ok"] = False
            return checked

        monkeypatch.setattr(campaign_module, "_check_document", broken)
        config = ZooConfig(
            robot_count=25, foi_target_points=120, grid_target=400,
            methods=("ours (a)",), shrink=False,
        )
        summary = zoo_campaign(
            families=("rough",), seeds=(0,), config=config, workers=1,
        )
        entry = summary["counterexamples"][0]
        monkeypatch.setattr(campaign_module, "_check_document", real)
        doc, matches = replay_counterexample(entry, config)
        assert doc["outcome"] == "pass"
        assert not matches

    def test_malformed_counterexample_rejected(self):
        with pytest.raises(ScenarioError, match="malformed"):
            replay_counterexample({"seed": "not-an-int", "family": None})
