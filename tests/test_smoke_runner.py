"""The smoke runner (``scripts/smoke.py``): CI wiring and pinned bytes.

``scripts/`` is not a package, so the runner is loaded by path.  The
digests pin the serial ``--output`` bytes (``dumps_canonical`` of the
summary) of the chaos, zoo and mission smoke matrices; a refactor of a
campaign must leave them unchanged.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.cli import main

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


def test_ci_smoke_matrix_lists_every_runner_name():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = ci[ci.index("\n  smoke:\n"):]
    names = re.search(r"^\s+name:\s*\[(.*)\]\s*$", job, re.MULTILINE).group(1)
    assert [n.strip() for n in names.split(",")] == list(smoke.SMOKES)
