"""Whole-pipeline invariant campaigns over the scenario zoo.

``python -m repro zoo`` runs the full plan->execute pipeline over a
``(family, seed) x method`` matrix of procedurally generated scenarios
and asserts the paper's claims on every cell:

* **connectivity** - ``C = 1`` at every sampled instant of the
  trajectory *including* the left-sided limits at jump discontinuities
  (Definition 2);
* **lemma1** - ``L`` is a valid ratio in [0, 1] and ``D`` respects the
  Lemma-1 tradeoff's hard floor: no plan can move less than the
  minimum-cost matching between its own start and final positions;
* **definition2** - the serialized plan document round-trips and the
  re-verified trajectory still satisfies Definition 2 with the same
  metrics (what a service client would recompute from the wire bytes);
* **document** - the canonical plan-document bytes are stable under a
  JSON round-trip, and their digest is recorded so summaries compared
  across worker counts also compare every plan document byte for byte.

Every case is a pure function of ``(family, seed, params)``; failures
are shrunk toward milder parameters and persisted as replayable
triples, turning each counterexample into a pinned regression case.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.baselines.hungarian import matching_cost, min_cost_matching
from repro.coverage import LloydConfig
from repro.errors import ReproError, ScenarioError
from repro.exec import parallel_map, resolve_workers
from repro.experiments.tables import format_table
from repro.experiments.zoo.families import (
    FAMILIES,
    ZooParams,
    build_foi,
    family_rng,
    mild_params,
)
from repro.foi.region import FieldOfInterest
from repro.foi.shapes import radial_blob
from repro.io import (
    canonical_digest,
    check_format_version,
    dumps_canonical,
    result_to_dict,
    trajectory_from_dict,
)
from repro.marching import MarchingConfig, MarchingPlanner
from repro.metrics import connectivity_report, stable_link_ratio
from repro.network.links import LinkTable
from repro.obs import span
from repro.robots import RadioSpec, Swarm

__all__ = [
    "INVARIANTS",
    "ZooCase",
    "ZooConfig",
    "ZooScenario",
    "build_zoo_scenario",
    "replay_counterexample",
    "render_zoo",
    "run_zoo_case",
    "shrink_case",
    "zoo_campaign",
]

#: Invariant names, in report order.
INVARIANTS = ("connectivity", "lemma1", "definition2", "document")

_DISTANCE_TOL = 1e-6


@dataclass(frozen=True)
class ZooConfig:
    """Size/resolution knobs of a zoo campaign (CI-sized defaults).

    Attributes
    ----------
    robot_count : int
        Robots per case; 36 keeps a 5-family x 5-seed x 2-method
        matrix well under a minute while still exercising repair and
        Lloyd adjustment.
    separation_factor : float
        M1-M2 centroid distance in communication ranges.
    comm_range : float
    foi_target_points, grid_target, lloyd_max_iterations : int
        Planner resolution knobs.
    resolution : int
        Definition-2 sampling resolution (``L`` is exact and samples no grid).
    methods : tuple of str
        Planner methods to run per scenario ("ours (a)", "ours (b)").
    shrink : bool
        Attempt parameter shrinking on failing cases.
    shrink_budget : int
        Maximum extra case runs spent shrinking one counterexample.
    """

    robot_count: int = 36
    separation_factor: float = 5.0
    comm_range: float = 80.0
    foi_target_points: int = 150
    grid_target: int = 500
    lloyd_max_iterations: int = 20
    resolution: int = 8
    methods: tuple[str, ...] = ("ours (a)", "ours (b)")
    shrink: bool = True
    shrink_budget: int = 4

    def marching_config(self, method: str) -> MarchingConfig:
        if method not in ("ours (a)", "ours (b)"):
            raise ScenarioError(f"unknown zoo method {method!r}")
        return MarchingConfig(
            method="a" if method.endswith("(a)") else "b",
            foi_target_points=self.foi_target_points,
            lloyd=LloydConfig(
                grid_target=self.grid_target,
                max_iterations=self.lloyd_max_iterations,
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "robot_count": self.robot_count,
            "separation_factor": self.separation_factor,
            "comm_range": self.comm_range,
            "foi_target_points": self.foi_target_points,
            "grid_target": self.grid_target,
            "lloyd_max_iterations": self.lloyd_max_iterations,
            "resolution": self.resolution,
            "methods": list(self.methods),
        }


@dataclass(frozen=True)
class ZooCase:
    """One (family, seed) cell; ``params`` overrides the seed's draw
    (that is how a shrunk counterexample replays)."""

    family: str
    seed: int
    params: ZooParams | None = None


@dataclass(frozen=True)
class ZooScenario:
    """A fully built zoo marching problem."""

    family: str
    seed: int
    params: ZooParams
    m1: FieldOfInterest
    m2: FieldOfInterest
    swarm: Swarm

    @property
    def comm_range(self) -> float:
        return self.swarm.radio.comm_range


def build_zoo_scenario(
    family: str,
    seed: int,
    config: ZooConfig | None = None,
    params: ZooParams | None = None,
) -> ZooScenario:
    """Build the marching problem for one zoo case.

    M2 is the zoo shape (the hard target the campaign stresses); M1 is
    a mild seed-derived blob sized so the swarm deploys at a lattice
    pitch safely below communication range.  Everything is a pure
    function of ``(family, seed, params, config)``.
    """
    config = config or ZooConfig()
    m2_unit, params = build_foi(family, seed, params)
    rng = family_rng(family, seed, stream=2)
    radio = RadioSpec.from_comm_range(config.comm_range)
    target_spacing = 0.6 * config.comm_range
    area1 = float(np.sqrt(3.0) / 2.0 * config.robot_count * target_spacing**2)
    harmonics = {
        2: (float(rng.uniform(-0.08, 0.08)), float(rng.uniform(-0.08, 0.08))),
        3: (float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-0.05, 0.05))),
    }
    m1 = FieldOfInterest(
        radial_blob(harmonics), name=f"zoo-M1[{family}:{seed}]"
    ).scaled_to_area(area1)
    swarm = Swarm.deploy_lattice(m1, config.robot_count, radio)

    area2 = area1 * float(rng.uniform(0.8, 1.1))
    m2 = m2_unit.scaled_to_area(area2)
    bearing = float(rng.uniform(0.0, 2.0 * np.pi))
    sep = config.separation_factor * config.comm_range
    offset = (
        m1.centroid
        + sep * np.array([np.cos(bearing), np.sin(bearing)])
        - m2.centroid
    )
    return ZooScenario(
        family=family,
        seed=seed,
        params=params,
        m1=m1,
        m2=m2.translated(offset),
        swarm=swarm,
    )


# ----------------------------------------------------------------------
# Invariant evaluation
# ----------------------------------------------------------------------


def _check_connectivity(result, comm_range: float, resolution: int) -> dict[str, Any]:
    """Definition 2 over sampled instants plus jump left-limits."""
    report = connectivity_report(
        result.trajectory, comm_range, result.boundary_anchors, resolution
    )
    return {
        "ok": report.connected,
        "max_isolated": report.max_isolated,
        "left_limit_isolated": report.left_limit_isolated,
        "samples": report.samples,
        "first_failure_time": report.first_failure_time,
    }


def _check_lemma1(result, links) -> dict[str, Any]:
    """``L`` in [0, 1]; ``D`` at or above the matching floor.

    Lemma 1 says maximising ``L`` and minimising ``D`` conflict; its
    hard half is the distance floor: whatever links a plan preserves,
    ``D`` can never undercut the minimum-cost matching between the
    start and final position sets (and a fortiori the per-robot
    straight lines to the plan's own assignment).
    """
    ratio = stable_link_ratio(links, result.trajectory)
    total = float(result.total_distance)
    start, final = result.start_positions, result.final_positions
    straight = float(np.hypot(*(final - start).T).sum())
    floor = float(matching_cost(start, final, min_cost_matching(start, final)))
    ok = (
        0.0 <= ratio <= 1.0
        and total >= straight - _DISTANCE_TOL
        and total >= floor - _DISTANCE_TOL
    )
    return {
        "ok": ok,
        "L": ratio,
        "D": total,
        "D_straight": straight,
        "D_floor": floor,
    }


def _check_definition2(result, comm_range: float, resolution: int,
                       direct: dict[str, Any]) -> tuple[dict[str, Any], bytes]:
    """Round-trip the plan document and re-verify Definition 2 from it."""
    doc = result_to_dict(result)
    payload = dumps_canonical(doc)
    data = json.loads(payload)
    check_format_version(data)
    trajectory = trajectory_from_dict(data["trajectory"])
    links = LinkTable(
        links=np.asarray(data["links"], dtype=int).reshape(-1, 2),
        comm_range=float(data["comm_range"]),
    )
    report = connectivity_report(
        trajectory, comm_range, data["boundary_anchors"], resolution
    )
    ratio = stable_link_ratio(links, trajectory)
    finals_match = bool(
        np.allclose(
            np.asarray(data["final_positions"], dtype=float),
            result.final_positions,
        )
    )
    ok = (
        report.connected
        and finals_match
        and abs(ratio - direct["L"]) <= 1e-12
    )
    return (
        {
            "ok": ok,
            "connected": report.connected,
            "finals_match": finals_match,
            "L_roundtrip": ratio,
        },
        payload,
    )


def _check_document(payload: bytes) -> dict[str, Any]:
    """Canonical bytes are a fixed point of parse -> re-serialize."""
    stable = dumps_canonical(json.loads(payload)) == payload
    return {
        "ok": stable,
        "bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def run_zoo_case(case: ZooCase, config: ZooConfig | None = None) -> dict[str, Any]:
    """Run one zoo cell end to end; always returns a plain document.

    Three outcomes: ``pass`` (every invariant held for every method),
    ``fail`` (some invariant broke - the per-invariant detail says
    which), ``error`` (generation or planning raised; the zoo's
    validity claim failed, which the campaign also counts against the
    family).
    """
    config = config or ZooConfig()
    doc: dict[str, Any] = {
        "family": case.family,
        "seed": case.seed,
    }
    with span("zoo.case", family=case.family, seed=case.seed):
        try:
            scenario = build_zoo_scenario(
                case.family, case.seed, config, params=case.params
            )
        except ReproError as exc:
            params = case.params or _safe_draw(case.family, case.seed)
            doc.update(
                params=params.to_dict() if params else {},
                outcome="error",
                stage="generate",
                error=str(exc),
                methods={},
            )
            return doc
        doc["params"] = scenario.params.to_dict()
        doc["robots"] = scenario.swarm.size
        methods: dict[str, Any] = {}
        failed = False
        errored = False
        for method in config.methods:
            try:
                result = MarchingPlanner(config.marching_config(method)).plan(
                    scenario.swarm, scenario.m2, source_foi=scenario.m1
                )
            except ReproError as exc:
                methods[method] = {
                    "outcome": "error",
                    "stage": "plan",
                    "error": str(exc),
                }
                errored = True
                continue
            conn = _check_connectivity(
                result, scenario.comm_range, config.resolution
            )
            lemma1 = _check_lemma1(result, result.links)
            def2, payload = _check_definition2(
                result, scenario.comm_range, config.resolution, lemma1
            )
            document = _check_document(payload)
            invariants = {
                "connectivity": conn,
                "lemma1": lemma1,
                "definition2": def2,
                "document": document,
            }
            ok = all(inv["ok"] for inv in invariants.values())
            failed = failed or not ok
            methods[method] = {
                "outcome": "pass" if ok else "fail",
                "invariants": invariants,
            }
        doc["methods"] = methods
        doc["outcome"] = (
            "error" if errored else ("fail" if failed else "pass")
        )
    return doc


def _safe_draw(family: str, seed: int) -> ZooParams | None:
    from repro.experiments.zoo.families import draw_params

    try:
        return draw_params(family, seed)
    except ReproError:
        return None


def _failing_invariants(doc: dict[str, Any]) -> list[str]:
    if doc["outcome"] == "error":
        return ["generation"]
    failing: set[str] = set()
    for method_doc in doc.get("methods", {}).values():
        if method_doc.get("outcome") == "error":
            failing.add("generation")
        elif method_doc.get("outcome") == "fail":
            for name, inv in method_doc["invariants"].items():
                if not inv["ok"]:
                    failing.add(name)
    return sorted(failing)


def shrink_case(
    doc: dict[str, Any], config: ZooConfig
) -> tuple[dict[str, Any], int]:
    """Greedily shrink a failing case toward milder parameters.

    Tries the one-step reductions of :func:`mild_params` (drop a hole,
    halve roughness, drop a lobe, widen the corridor) and keeps any
    variant that still fails, until the budget is spent or no reduction
    reproduces the failure.  Returns the (possibly reduced) failing
    case document and the number of extra runs spent.
    """
    spent = 0
    current = doc
    params = ZooParams.from_dict(doc["params"]) if doc.get("params") else None
    if params is None:
        return current, spent
    improved = True
    while improved and spent < config.shrink_budget:
        improved = False
        for candidate in mild_params(doc["family"], params):
            if spent >= config.shrink_budget:
                break
            trial = run_zoo_case(
                ZooCase(doc["family"], doc["seed"], params=candidate), config
            )
            spent += 1
            if trial["outcome"] in ("fail", "error"):
                current, params, improved = trial, candidate, True
                break
    return current, spent


def _counterexample(doc: dict[str, Any]) -> dict[str, Any]:
    """The replayable triple (plus verdict digest) for one failing case."""
    return {
        "family": doc["family"],
        "seed": doc["seed"],
        "params": doc.get("params", {}),
        "invariants": _failing_invariants(doc),
        "case_sha256": canonical_digest(doc),
    }


def replay_counterexample(
    entry: dict[str, Any], config: ZooConfig | None = None
) -> tuple[dict[str, Any], bool]:
    """Re-run a persisted counterexample triple.

    Returns the fresh case document and whether it reproduces the
    recorded run byte-identically (same canonical case bytes, hence
    the same failure).
    """
    try:
        family = str(entry["family"])
        seed = int(entry["seed"])
        params = ZooParams.from_dict(entry["params"]) if entry.get("params") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed counterexample entry: {exc}") from exc
    doc = run_zoo_case(ZooCase(family, seed, params=params), config or ZooConfig())
    recorded = entry.get("case_sha256")
    matches = recorded is None or canonical_digest(doc) == recorded
    return doc, matches


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------


def _zoo_task(task) -> dict[str, Any]:
    """Module-level (picklable) worker task for :func:`parallel_map`."""
    case, config = task
    return run_zoo_case(case, config)


def zoo_campaign(
    families: Sequence[str] = FAMILIES,
    seeds: Sequence[int] = (0, 1, 2),
    config: ZooConfig | None = None,
    workers: int | None = None,
) -> dict[str, Any]:
    """Run the full (family, seed) matrix and aggregate a summary.

    Returns a plain-JSON dict: one case document per cell in
    deterministic matrix order, per-family aggregates, and shrunk
    replayable counterexamples for every failure.  Identical for any
    ``workers`` count; serialize with :func:`repro.io.dumps_canonical`
    to compare runs (the digest of every plan document rides along, so
    the comparison covers plan bytes too).  Raises
    :class:`~repro.errors.ScenarioError` on an unknown family or an
    empty matrix - a campaign of zero cases proves nothing.
    """
    config = config or ZooConfig()
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ScenarioError(
            f"unknown zoo families {unknown}; valid: {list(FAMILIES)}"
        )
    cases = [ZooCase(family, seed) for family in families for seed in seeds]
    if not cases:
        raise ScenarioError(
            f"empty zoo matrix: families {list(families)} x seeds "
            f"{list(seeds)} has no cases"
        )
    workers = resolve_workers(workers)
    with span("zoo.campaign", cases=len(cases), workers=workers):
        docs = parallel_map(
            _zoo_task,
            [(c, config) for c in cases],
            workers=workers,
        )

        counterexamples = []
        shrunk_runs = 0
        for doc in docs:
            if doc["outcome"] in ("fail", "error"):
                reduced, spent = (
                    shrink_case(doc, config) if config.shrink else (doc, 0)
                )
                shrunk_runs += spent
                counterexamples.append(_counterexample(reduced))

    per_family: dict[str, Any] = {}
    for family in families:
        fam_docs = [d for d in docs if d["family"] == family]
        fam_inv: dict[str, int] = {name: 0 for name in INVARIANTS}
        for d in fam_docs:
            for name in _failing_invariants(d):
                if name in fam_inv:
                    fam_inv[name] += 1
        per_family[family] = {
            "cases": len(fam_docs),
            "passed": sum(1 for d in fam_docs if d["outcome"] == "pass"),
            "failed": sum(1 for d in fam_docs if d["outcome"] == "fail"),
            "errors": sum(1 for d in fam_docs if d["outcome"] == "error"),
            "invariant_failures": fam_inv,
        }
    return {
        "config": config.to_dict(),
        "matrix": {"families": list(families), "seeds": list(seeds)},
        "cases": docs,
        "families": per_family,
        "counterexamples": counterexamples,
        "summary": {
            "cases": len(docs),
            "passed": sum(1 for d in docs if d["outcome"] == "pass"),
            "failed": sum(1 for d in docs if d["outcome"] == "fail"),
            "errors": sum(1 for d in docs if d["outcome"] == "error"),
            "shrink_runs": shrunk_runs,
            "all_pass": all(d["outcome"] == "pass" for d in docs),
        },
    }


def render_zoo(summary: dict[str, Any]) -> str:
    """Human-readable per-family invariant table (the CLI's output)."""
    rows = []
    for family, agg in summary["families"].items():
        inv = agg["invariant_failures"]
        rows.append([
            family,
            agg["cases"],
            agg["passed"],
            agg["failed"],
            agg["errors"],
        ] + [("ok" if inv[name] == 0 else f"{inv[name]} FAIL")
             for name in INVARIANTS])
    table = format_table(
        ["family", "cases", "pass", "fail", "err",
         "C=1", "lemma1", "def2", "doc"],
        rows,
    )
    agg = summary["summary"]
    lines = [table, (
        f"{agg['passed']}/{agg['cases']} cases passed every invariant; "
        f"{agg['failed']} failed, {agg['errors']} errored"
    )]
    for entry in summary["counterexamples"]:
        triple = dumps_canonical(
            {k: entry[k] for k in ("family", "seed", "params")}
        ).decode("utf-8")
        lines.append(
            f"counterexample [{','.join(entry['invariants'])}] "
            f"replay with: python -m repro zoo --replay '{triple}'"
        )
    return "\n".join(lines)
