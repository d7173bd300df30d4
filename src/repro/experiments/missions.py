"""Mission campaign: the (family, motion, seed) replanning matrix.

Runs :class:`~repro.missions.MissionRunner` missions across a matrix of
zoo families x target motions x seeds and aggregates one canonical
summary document, mirroring the zoo/chaos campaign shape:

* every cell is a full mission (seeded target sequence, per-epoch
  incremental replanning, C = 1 re-verification at every sampled
  instant including jump left-limits);
* a cell that cannot complete surfaces as a typed ``error`` row
  carrying the :class:`~repro.errors.MissionError` message - the
  matrix is total, never silently truncated;
* the summary is byte-identical for any ``workers`` count (mission
  documents exclude wall-clock; each row carries the full document's
  ``canonical_digest`` so byte-identity checks cover plan bytes too).

``python -m repro mission`` is the CLI front-end;
``python -m repro report --missions`` embeds :func:`render_missions`'s
table into the markdown report.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import MissionError
from repro.exec import parallel_map, resolve_workers
from repro.experiments.tables import format_table
from repro.io import canonical_digest
from repro.obs import span

# NOTE: repro.missions is imported inside functions - this module is
# pulled in by the repro.experiments package __init__, while
# repro.missions itself builds on repro.experiments.zoo; importing it
# here at module level would close an import cycle.

__all__ = [
    "DEFAULT_FAMILIES",
    "mission_campaign",
    "missions_passed",
    "render_missions",
    "run_mission_cell",
]

#: default family subset - one compact, one elongated, one holed FoI,
#: enough motion diversity to exercise drift cache hits and deform
#: cache misses without a full five-family sweep per CI run.
DEFAULT_FAMILIES = ("corridor", "annulus")


def run_mission_cell(
    spec: MissionSpec, config: MissionConfig | None = None
) -> dict[str, Any]:
    """One matrix cell: run the mission, reduce to a summary row.

    The row keeps the campaign document small (epoch records stay out)
    but pins the full mission document through ``mission_sha256`` - two
    campaigns agree on a row iff the underlying mission documents are
    byte-identical.
    """
    from repro.missions import MissionRunner

    row: dict[str, Any] = {
        "family": spec.family,
        "motion": spec.motion,
        "seed": spec.seed,
        "epochs": spec.epochs,
    }
    try:
        doc = MissionRunner(spec, config).run()
    except MissionError as exc:
        row.update({
            "outcome": "error",
            "epoch": exc.epoch,
            "error": str(exc),
        })
        return row
    summary = doc["summary"]
    row.update({
        "outcome": "pass" if summary["connected_all"] else "fail",
        "replans": summary["replans"],
        "fault_replans": summary["fault_replans"],
        "survivors": summary["survivors"],
        "cache_hits": summary["cache_hits"],
        "cache_misses": summary["cache_misses"],
        "total_distance": summary["total_distance"],
        "c_violations": summary["c_violations"],
        "in_target": summary["in_target"],
        "mission_sha256": canonical_digest(doc),
    })
    return row


def _mission_task(task) -> dict[str, Any]:
    """Module-level (picklable) worker task for :func:`parallel_map`."""
    spec, config = task
    return run_mission_cell(spec, config)


def mission_campaign(
    families: Sequence[str] = DEFAULT_FAMILIES,
    motions: Sequence[str] | None = None,
    seeds: Sequence[int] = (0,),
    epochs: int = 3,
    config: MissionConfig | None = None,
    workers: int | None = None,
) -> dict[str, Any]:
    """Run the (family, motion, seed) matrix and aggregate a summary.

    Identical output for any ``workers`` count: every mission scopes
    its own metrics and cache, so fan-out order cannot leak into the
    rows.  Serialize with :func:`repro.io.dumps_canonical` for
    byte-identity comparisons across runs and worker counts.  Raises
    :class:`MissionError` on an unknown family or motion or an empty
    matrix - a campaign of zero missions proves nothing.
    """
    from repro.experiments.zoo.families import FAMILIES
    from repro.missions import MOTIONS, MissionConfig, MissionSpec

    config = config or MissionConfig()
    motions = tuple(motions) if motions is not None else MOTIONS
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise MissionError(
            f"unknown mission families {unknown}; valid: {list(FAMILIES)}"
        )
    unknown = [m for m in motions if m not in MOTIONS]
    if unknown:
        raise MissionError(
            f"unknown mission motions {unknown}; valid: {list(MOTIONS)}"
        )
    specs = [
        MissionSpec(family=family, seed=seed, epochs=epochs, motion=motion)
        for family in families
        for motion in motions
        for seed in seeds
    ]
    if not specs:
        raise MissionError(
            f"empty mission matrix: families {list(families)} x motions "
            f"{list(motions)} x seeds {list(seeds)} has no cells"
        )
    workers = resolve_workers(workers)
    with span("mission.campaign", cells=len(specs), workers=workers):
        rows = parallel_map(
            _mission_task,
            [(s, config) for s in specs],
            workers=workers,
        )

    per_motion: dict[str, Any] = {}
    for motion in motions:
        cells = [r for r in rows if r["motion"] == motion]
        passed = [r for r in cells if r["outcome"] == "pass"]
        per_motion[motion] = {
            "cells": len(cells),
            "passed": len(passed),
            "failed": sum(1 for r in cells if r["outcome"] == "fail"),
            "errors": sum(1 for r in cells if r["outcome"] == "error"),
            "cache_hits": sum(r["cache_hits"] for r in passed),
            "cache_misses": sum(r["cache_misses"] for r in passed),
        }
    completed = [r for r in rows if r["outcome"] != "error"]
    return {
        "config": config.to_dict(),
        "matrix": {
            "families": list(families),
            "motions": list(motions),
            "seeds": list(seeds),
            "epochs": epochs,
        },
        "cells": rows,
        "motions": per_motion,
        "summary": {
            "cells": len(rows),
            "passed": sum(1 for r in rows if r["outcome"] == "pass"),
            "failed": sum(1 for r in rows if r["outcome"] == "fail"),
            "errors": sum(1 for r in rows if r["outcome"] == "error"),
            "replans_total": sum(r["replans"] for r in completed),
            "cache_hits_total": sum(r["cache_hits"] for r in completed),
            "cache_misses_total": sum(r["cache_misses"] for r in completed),
            "connected_all": all(
                r["outcome"] == "pass" for r in rows
            ),
        },
    }


def render_missions(summary: dict[str, Any]) -> str:
    """Human-readable per-cell table (the CLI's output)."""
    rows = []
    for cell in summary["cells"]:
        if cell["outcome"] == "error":
            rows.append([
                cell["family"], cell["motion"], cell["seed"],
                f"error@{cell['epoch']}", "-", "-", "-", "-", "-",
            ])
            continue
        rows.append([
            cell["family"],
            cell["motion"],
            cell["seed"],
            cell["outcome"],
            cell["replans"],
            cell["cache_hits"],
            cell["cache_misses"],
            cell["c_violations"],
            f"{cell['total_distance'] / 1000:.2f}",
        ])
    table = format_table(
        ["family", "motion", "seed", "outcome", "replans",
         "hits", "misses", "C viol", "D (km)"],
        rows,
    )
    agg = summary["summary"]
    digest = canonical_digest(summary)
    tail = (
        f"{agg['passed']}/{agg['cells']} missions held C = 1 at every "
        f"sampled instant; {agg['replans_total']} replans, "
        f"{agg['cache_hits_total']} disk-map cache hits / "
        f"{agg['cache_misses_total']} misses"
    )
    return f"{table}\n{tail}\ncanonical digest {digest}"


def missions_passed(summary: dict[str, Any]) -> bool:
    """The campaign's overall verdict (the CLI's exit code)."""
    return bool(summary["summary"]["connected_all"])
