"""Pinned hard instances from the scenario zoo.

Each case was found by hand-sweeping the zoo outside the default draw
envelopes and is pinned as a fixed ``(family, seed, params)`` triple so
the whole pipeline keeps handling it.  The triples are exactly what
``python -m repro zoo --replay`` consumes, so any of them can be
re-examined from the command line.
"""

import numpy as np
import pytest

from repro.errors import TriangulationError
from repro.experiments.zoo import (
    ZooCase,
    ZooConfig,
    ZooParams,
    build_foi,
    build_zoo_scenario,
    hole_clearance,
    run_zoo_case,
)
from repro.experiments.zoo.families import draw_params
from repro.foi.gridding import suggest_spacing
from repro.io import dumps_canonical
from repro.mesh import delaunay

FAST = ZooConfig(
    robot_count=25, foi_target_points=120, grid_target=400, shrink=False
)

# Narrower than the corridor family ever draws (envelope floor 0.14).
THIN_CORRIDOR = ZooCase(
    "corridor",
    seed=3,
    params=ZooParams(lobes=3, roughness=0.4, min_corridor_width=0.12),
)

# Hole eats 36% of the disk - the thinnest ring the planner must thread.
FAT_HOLE_ANNULUS = ZooCase(
    "annulus",
    seed=2,
    params=ZooParams(
        lobes=1,
        hole_count=1,
        hole_area_fraction=0.36,
        roughness=0.1,
        min_corridor_width=0.4,
    ),
)

# Two large holes pushed toward a rough boundary; the tighter one sits
# ~0.04 (unit scale) from the outer wall - nearly tangent.
NEAR_TANGENT_ROUGH = ZooCase(
    "rough",
    seed=11,
    params=ZooParams(lobes=3, hole_count=2, hole_area_fraction=0.1, roughness=0.25),
)

#: The Tier-1 property test's config
#: (``tests/test_property_invariants.py::TestZooPipelineInvariants``).
PROPERTY = ZooConfig(
    robot_count=25,
    foi_target_points=120,
    grid_target=400,
    methods=("ours (a)",),
    shrink=False,
)

# Tier-1 draws whose M2 grid at 120 points was too coarse: the
# triangulation lost a hole (2 boundary loops for 3 FoI loops) ...
COARSE_LOST_HOLE = ZooCase(
    "rough",
    seed=46,
    params=ZooParams(
        lobes=3,
        hole_count=2,
        hole_area_fraction=0.04772326511768914,
        roughness=0.24346910328430788,
        min_corridor_width=0.3,
    ),
)

# ... or pinched a boundary vertex between two triangle fans.
COARSE_PINCH = ZooCase(
    "rough",
    seed=48,
    params=ZooParams(
        lobes=3,
        hole_count=2,
        hole_area_fraction=0.026878863109162564,
        roughness=0.1327528535267326,
        min_corridor_width=0.3,
    ),
)


class TestCoarseTriangulationRefines:
    """``triangulate_foi`` refines its own grid instead of failing."""

    @pytest.mark.parametrize("case", [COARSE_LOST_HOLE, COARSE_PINCH])
    def test_coarse_tier1_draw_passes(self, case):
        assert case.params == draw_params(case.family, case.seed)
        doc = run_zoo_case(case, PROPERTY)
        assert doc["outcome"] == "pass", doc

    def test_near_tangent_hole_passes_at_coarse_sampling(self):
        doc = run_zoo_case(NEAR_TANGENT_ROUGH, FAST)
        assert doc["outcome"] == "pass", doc

    def test_refinement_is_bounded_and_typed(self, monkeypatch):
        case = COARSE_LOST_HOLE
        m2 = build_zoo_scenario(
            case.family, case.seed, PROPERTY, params=case.params
        ).m2
        fm = delaunay.triangulate_foi(m2, target_points=120)
        assert fm.point_set.spacing < suggest_spacing(m2, 120)
        assert len(fm.mesh.boundary_loops) == 1 + len(m2.holes)
        monkeypatch.setattr(delaunay, "_REFINEMENTS", 0)
        with pytest.raises(TriangulationError) as err:
            delaunay.triangulate_foi(m2, target_points=120)
        assert err.value.stage == "triangulate_foi"
        assert "boundary loops" in str(err.value)


class TestPinnedHardInstances:
    def test_thin_corridor_passes(self):
        assert THIN_CORRIDOR.params.min_corridor_width < 0.14
        doc = run_zoo_case(THIN_CORRIDOR, FAST)
        assert doc["outcome"] == "pass", doc

    def test_high_hole_fraction_annulus_passes(self):
        foi, _ = build_foi(
            FAT_HOLE_ANNULUS.family,
            FAT_HOLE_ANNULUS.seed,
            params=FAT_HOLE_ANNULUS.params,
        )
        hole_area = sum(h.area for h in foi.holes)
        assert hole_area / foi.outer.area >= 0.3
        doc = run_zoo_case(FAT_HOLE_ANNULUS, FAST)
        assert doc["outcome"] == "pass", doc

    def test_near_tangent_hole_geometry(self):
        foi, _ = build_foi(
            NEAR_TANGENT_ROUGH.family,
            NEAR_TANGENT_ROUGH.seed,
            params=NEAR_TANGENT_ROUGH.params,
        )
        tightest = min(hole_clearance(foi.outer, h) for h in foi.holes)
        assert 0.0 < tightest < 0.05

    def test_near_tangent_hole_passes_at_adequate_sampling(self):
        # At 120 boundary points the sliver between hole and wall pinches
        # the first grid (triangulate_foi refines past it); 200 never
        # pinches.  Pin the passing config.
        fine = ZooConfig(
            robot_count=25, foi_target_points=200, grid_target=400, shrink=False
        )
        doc = run_zoo_case(NEAR_TANGENT_ROUGH, fine)
        assert doc["outcome"] == "pass", doc

    def test_coarse_sampling_fails_gracefully_and_deterministically(self):
        # The same case under the coarse config must never raise: any
        # error is a per-method error document, and the document bytes
        # are replay-stable.
        a = run_zoo_case(NEAR_TANGENT_ROUGH, FAST)
        b = run_zoo_case(NEAR_TANGENT_ROUGH, FAST)
        assert dumps_canonical(a) == dumps_canonical(b)
        if a["outcome"] == "error":
            for method_doc in a["methods"].values():
                assert method_doc["stage"] == "plan"
                assert "pinched" in method_doc["error"]


class TestPinnedReplayTriples:
    @pytest.mark.parametrize(
        "case", [THIN_CORRIDOR, FAT_HOLE_ANNULUS, NEAR_TANGENT_ROUGH]
    )
    def test_params_round_trip(self, case):
        assert ZooParams.from_dict(case.params.to_dict()) == case.params

    @pytest.mark.parametrize(
        "case", [THIN_CORRIDOR, FAT_HOLE_ANNULUS, NEAR_TANGENT_ROUGH]
    )
    def test_geometry_reproducible_from_triple(self, case):
        a, _ = build_foi(case.family, case.seed, params=case.params)
        b, _ = build_foi(case.family, case.seed, params=case.params)
        assert np.array_equal(a.outer.vertices, b.outer.vertices)
        assert len(a.holes) == len(b.holes)
        for x, y in zip(a.holes, b.holes):
            assert np.array_equal(x.vertices, y.vertices)
