"""The smoke runner (``scripts/smoke.py``): CI wiring and pinned bytes.

``scripts/`` is not a package, so the runner is loaded by path.  The
digests pin the serial ``--output`` bytes (``dumps_canonical`` of the
summary) of the chaos, zoo and mission smoke matrices, plus the Table-I
path's scenario-run bytes, the distributed planner's plan bytes and a
chaos summary of the cluster and storm archetypes; a refactor of a
campaign, a planner or an evaluator must leave them unchanged.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.coverage import LloydConfig
from repro.experiments.harness import run_scenario
from repro.experiments.scenarios import get_scenario
from repro.foi import FieldOfInterest, ellipse_polygon
from repro.io import dumps_canonical, result_to_dict, scenario_run_to_dict
from repro.marching import DistributedMarchingPlanner, MarchingConfig
from repro.robots import RadioSpec, Swarm

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "smoke", ROOT / "scripts" / "smoke.py"
)
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)

PINNED = {
    "chaos": (
        smoke.CHAOS_MATRIX,
        "590540fb10b8d20582628438790d9565fe027d8cfff7c8c07d39b9e5fcc066cd",
    ),
    "zoo": (
        smoke.ZOO_MATRIX,
        "40f2664e88ae388b83351835892a154bf3b5eccfe7c46ffee3d3a50770e9ebd2",
    ),
    "mission": (
        smoke.MISSION_MATRIX,
        "5217e2d944294cd768d8ef2cad176579ef15dd18f5cff1cf7bbfc82daead940e",
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_smoke_matrix_summary_digest_is_pinned(command, tmp_path, capsys):
    matrix, digest = PINNED[command]
    out = tmp_path / f"{command}.json"
    code = main([command, *matrix, "--workers", "1", "--output", str(out)])
    assert code == 0, capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: ``dumps_canonical(scenario_run_to_dict(run_scenario(...)))`` at the
#: knobs below, per paper scenario (all four methods, Definition 2
#: through ``evaluate_trajectory``).
TABLE_I_PINNED = {
    1: "4e2101748564100f690f6da397723392ab2204c493164d7999b799ab1bfc4781",
    3: "e0a6db5d12eb1284f649c119d3ee3953fed7195815fc204d48ac706fbc11eb71",
}


@pytest.mark.parametrize("scenario_id", sorted(TABLE_I_PINNED))
def test_table_i_scenario_run_digest_is_pinned(scenario_id):
    run = run_scenario(
        get_scenario(scenario_id), foi_target_points=150, lloyd_grid_target=600
    )
    payload = dumps_canonical(scenario_run_to_dict(run))
    assert hashlib.sha256(payload).hexdigest() == TABLE_I_PINNED[scenario_id]


#: ``dumps_canonical(result_to_dict(DistributedMarchingPlanner(cfg).plan(
#: swarm, m2, source_foi=m1)))`` on the ``tests/test_distributed_rotation_planner.py``
#: fixture, per method.
DISTRIBUTED_PINNED = {
    "a": "3b14abb1409af672422ea5750e70bedf360a550807bc8337f14bd66007efc7f5",
    "b": "63f43316d456d933f1c77f86aa15d09dc862cf20ba9e8286bafc43cbc4bd092c",
}


@pytest.mark.parametrize("method", sorted(DISTRIBUTED_PINNED))
def test_distributed_plan_digest_is_pinned(method):
    radio = RadioSpec.from_comm_range(80.0)
    m1 = FieldOfInterest(
        ellipse_polygon(1.0, 1.0, samples=40).scaled_to_area(150_000.0), name="m1"
    )
    swarm = Swarm.deploy_lattice(m1, 49, radio)
    m2 = FieldOfInterest(
        ellipse_polygon(1.4, 0.8, samples=40).scaled_to_area(130_000.0), name="m2"
    ).translated((1400.0, 200.0))
    cfg = MarchingConfig(
        method=method,
        foi_target_points=220,
        lloyd=LloydConfig(grid_target=800, max_iterations=25),
    )
    result = DistributedMarchingPlanner(cfg).plan(swarm, m2, source_foi=m1)
    payload = dumps_canonical(result_to_dict(result))
    assert hashlib.sha256(payload).hexdigest() == DISTRIBUTED_PINNED[method]


#: The ``chaos --output`` bytes of the two archetypes the smoke matrix
#: leaves out (cluster crashes and a message storm).
CHAOS_CLUSTER_STORM = (
    ["--scenarios", "1", "2", "--archetypes", "cluster", "storm", "--seeds", "0"],
    "c5e416d4d89831525a02bbf26970e064137063d87f2f434b7ef7b1ff21c49383",
)


def test_chaos_cluster_storm_digest_is_pinned(tmp_path, capsys):
    matrix, digest = CHAOS_CLUSTER_STORM
    out = tmp_path / "chaos.json"
    code = main(["chaos", *matrix, "--workers", "1", "--output", str(out)])
    assert code == 0, capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_ci_smoke_matrix_lists_every_runner_name():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = ci[ci.index("\n  smoke:\n"):]
    names = re.search(r"^\s+name:\s*\[(.*)\]\s*$", job, re.MULTILINE).group(1)
    assert [n.strip() for n in names.split(",")] == list(smoke.SMOKES)
