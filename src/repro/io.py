"""Serialisation of plans and evaluations to JSON.

A marching result carries numpy arrays and nested dataclasses; this
module flattens the durable parts (positions, targets, per-robot
paths, metric scalars) into a plain-JSON document so downstream
analysis does not need the library - and a round-trip loader so it can
have the trajectory back when it does.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.marching.result import MarchingResult, RepairInfo
from repro.network.links import LinkTable
from repro.robots.motion import SwarmTrajectory

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "atomic_write",
    "result_to_dict",
    "save_result",
    "load_result_dict",
    "trajectory_from_dict",
    "canonical_digest",
    "check_format_version",
    "dumps_canonical",
    "evaluation_to_dict",
    "evaluation_from_dict",
    "scenario_run_to_dict",
    "scenario_run_from_dict",
    "plan_document",
    "mission_document",
    "JOURNAL_FORMAT_VERSION",
    "SUPPORTED_JOURNAL_VERSIONS",
    "journal_record",
    "check_journal_version",
]

FORMAT_VERSION = 1

#: every document version this build of the library can read back.
SUPPORTED_FORMAT_VERSIONS = (1,)

#: format version stamped on every write-ahead journal record.
JOURNAL_FORMAT_VERSION = 1

#: every journal record version this build can replay.
SUPPORTED_JOURNAL_VERSIONS = (1,)


def check_format_version(data: Any, source: Any = None) -> None:
    """Reject documents whose ``format_version`` this build cannot read.

    The planning service ships these documents over the wire, so an
    old client meeting a new document (or vice versa) must fail loudly
    rather than half-parse.
    """
    version = data.get("format_version") if isinstance(data, dict) else None
    if version not in SUPPORTED_FORMAT_VERSIONS:
        where = f" in {source}" if source is not None else ""
        raise ReproError(
            f"unsupported result format_version {version!r}{where}; this "
            f"build reads versions {list(SUPPORTED_FORMAT_VERSIONS)} - "
            "regenerate the document with this library's save_result / "
            "service, or upgrade the library"
        )


def journal_record(rtype: str, **fields: Any) -> dict[str, Any]:
    """A versioned write-ahead journal record.

    Every record the service journal appends goes through here so the
    on-disk format has exactly one author: a flat JSON object carrying
    ``journal_version`` and ``type`` plus the caller's fields, always
    serialised with :func:`dumps_canonical`.
    """
    record = {"journal_version": JOURNAL_FORMAT_VERSION, "type": str(rtype)}
    record.update(fields)
    return record


def check_journal_version(record: Any, source: Any = None) -> None:
    """Reject journal records this build cannot replay.

    Recovery correctness depends on interpreting every surviving record;
    a version this build does not know must stop the replay loudly
    rather than silently dropping state transitions.
    """
    from repro.errors import JournalError

    version = record.get("journal_version") if isinstance(record, dict) else None
    if version not in SUPPORTED_JOURNAL_VERSIONS:
        where = f" in {source}" if source is not None else ""
        raise JournalError(
            f"unsupported journal_version {version!r}{where}; this build "
            f"replays versions {list(SUPPORTED_JOURNAL_VERSIONS)} - recover "
            "with a matching library build or discard the journal directory"
        )


def atomic_write(path: str | Path, data: bytes, fsync: bool = True) -> None:
    """Durably replace ``path`` with ``data``: readers see old or new, never torn.

    The bytes go to a ``*.tmp`` file in the target's own directory
    (fsynced unless ``fsync=False``), which is then renamed over
    ``path``.  A writer killed mid-write leaves only that ``*.tmp``
    behind, for :meth:`repro.exec.cache.DiskStore.sweep_tmp` to collect.

    Raises
    ------
    OSError
        When the write or the rename fails; the temp file is removed
        first.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dumps_canonical(doc: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators, UTF-8.

    The one serialisation used for documents whose bytes are compared
    or content-addressed (service result payloads, byte-identity
    tests): two equal documents always produce identical bytes.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_digest(doc: Any) -> str:
    """Hex SHA-256 of a document's canonical bytes.

    A compact fingerprint for byte-identity comparisons across runs
    and processes (the load generator reports one per summary so CI
    can assert reproducibility without shipping whole documents).
    """
    import hashlib

    return hashlib.sha256(dumps_canonical(doc)).hexdigest()


def _trajectory_to_dict(trajectory: SwarmTrajectory) -> dict[str, Any]:
    return {
        "t_start": trajectory.t_start,
        "t_end": trajectory.t_end,
        "paths": [
            {"waypoints": xy.tolist(), "times": times.tolist()}
            for xy, times in map(trajectory.path, range(trajectory.robot_count))
        ],
    }


def trajectory_from_dict(data: dict[str, Any]) -> SwarmTrajectory:
    """Rebuild a :class:`SwarmTrajectory` from its JSON form."""
    try:
        return SwarmTrajectory.from_paths(
            ((p["waypoints"], p["times"]) for p in data["paths"]),
            float(data["t_start"]),
            float(data["t_end"]),
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed trajectory document: {exc}") from exc


def result_to_dict(result: MarchingResult) -> dict[str, Any]:
    """Flatten a :class:`MarchingResult` into a JSON-serialisable dict.

    Stage artifacts (meshes, disk maps) are intentionally dropped; they
    are reproducible from the inputs and not part of the durable record.
    """
    return {
        "format_version": FORMAT_VERSION,
        "method": result.method,
        "rotation_angle": result.rotation_angle,
        "rotation_evaluations": result.rotation_evaluations,
        "lloyd_iterations": result.lloyd_iterations,
        "boundary_anchors": list(result.boundary_anchors),
        "start_positions": result.start_positions.tolist(),
        "march_targets": result.march_targets.tolist(),
        "final_positions": result.final_positions.tolist(),
        "links": result.links.links.tolist(),
        "comm_range": result.links.comm_range,
        "repair": {
            "escorted": list(result.repair.escorted),
            "references": {str(k): v for k, v in result.repair.references.items()},
            "rounds": result.repair.rounds,
            "isolated_before": result.repair.isolated_before,
        },
        "trajectory": _trajectory_to_dict(result.trajectory),
    }


def save_result(result: MarchingResult, path) -> Path:
    """Write a result as pretty-printed JSON; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(result_to_dict(result), indent=2))
    return p


def load_result_dict(path) -> dict[str, Any]:
    """Load a saved result document and restore the heavyweight fields.

    Returns a dict with numpy arrays for the position fields, a
    :class:`LinkTable`, a :class:`SwarmTrajectory`, and a
    :class:`RepairInfo` - everything the metrics functions need.

    Raises
    ------
    ReproError
        On version mismatch or malformed content.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read result file {path}: {exc}") from exc
    check_format_version(data, source=path)
    out = dict(data)
    for key in ("start_positions", "march_targets", "final_positions"):
        out[key] = np.asarray(data[key], dtype=float)
    out["links"] = LinkTable(
        links=np.asarray(data["links"], dtype=int).reshape(-1, 2),
        comm_range=float(data["comm_range"]),
    )
    out["trajectory"] = trajectory_from_dict(data["trajectory"])
    rep = data["repair"]
    out["repair"] = RepairInfo(
        escorted=tuple(rep["escorted"]),
        references={int(k): int(v) for k, v in rep["references"].items()},
        rounds=int(rep["rounds"]),
        isolated_before=int(rep["isolated_before"]),
    )
    return out


# ----------------------------------------------------------------------
# Harness evaluations (what the planning service returns over the wire)


def evaluation_to_dict(evaluation) -> dict[str, Any]:
    """Flatten a :class:`~repro.experiments.TransitionEvaluation`."""
    return {
        "method": evaluation.method,
        "total_distance": evaluation.total_distance,
        "stable_link_ratio": evaluation.stable_link_ratio,
        "globally_connected": evaluation.globally_connected,
        "max_isolated": evaluation.max_isolated,
        "final_positions": evaluation.final_positions.tolist(),
    }


def evaluation_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.experiments.TransitionEvaluation`."""
    from repro.experiments.harness import TransitionEvaluation

    try:
        return TransitionEvaluation(
            method=str(data["method"]),
            total_distance=float(data["total_distance"]),
            stable_link_ratio=float(data["stable_link_ratio"]),
            globally_connected=bool(data["globally_connected"]),
            max_isolated=int(data["max_isolated"]),
            final_positions=np.asarray(data["final_positions"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed evaluation document: {exc}") from exc


def scenario_run_to_dict(run) -> dict[str, Any]:
    """Flatten a :class:`~repro.experiments.ScenarioRun` (one fragment of
    a :func:`plan_document`; carries no ``format_version`` of its own)."""
    return {
        "scenario_id": run.scenario_id,
        "separation_factor": run.separation_factor,
        "evaluations": {
            method: evaluation_to_dict(e) for method, e in run.evaluations.items()
        },
    }


def scenario_run_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.experiments.ScenarioRun`."""
    from repro.experiments.harness import ScenarioRun

    try:
        return ScenarioRun(
            scenario_id=int(data["scenario_id"]),
            separation_factor=float(data["separation_factor"]),
            evaluations={
                method: evaluation_from_dict(payload)
                for method, payload in data["evaluations"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed scenario run document: {exc}") from exc


def plan_document(runs: dict[int, Any]) -> dict[str, Any]:
    """The versioned wire document for a batch of scenario runs.

    ``runs`` is the ``{scenario_id: ScenarioRun}`` mapping returned by
    :func:`repro.experiments.run_scenarios`; serialise the document
    with :func:`dumps_canonical` when bytes must be comparable.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "plan_batch",
        "runs": {str(sid): scenario_run_to_dict(run) for sid, run in runs.items()},
    }


def mission_document(
    spec: dict[str, Any],
    config: dict[str, Any],
    faults: dict[str, Any] | None,
    epochs: list[dict[str, Any]],
    summary: dict[str, Any],
) -> dict[str, Any]:
    """The versioned wire document for one completed mission.

    Every field is deterministic (no wall-clock content), so the
    document is byte-stable under :func:`dumps_canonical` across
    processes, worker counts, and the service - the property the
    mission byte-identity contract rests on.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "mission",
        "spec": spec,
        "config": config,
        "faults": faults,
        "epochs": list(epochs),
        "summary": summary,
    }
