"""Command-line interface: run scenarios, sweeps and figure generation.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro scenario 3 --separation 20
    python -m repro sweep 1 --separations 10 40 70 100 --figures out/
    python -m repro table1
    python -m repro lemmas
    python -m repro pipeline 3 --output out/fig2
    python -m repro plan 3 --trace out.jsonl
    python -m repro chaos --seeds 0 1 --output chaos.json
    python -m repro mission --families corridor --epochs 3
    python -m repro serve --port 8642 --workers 2 --service-workers 2
    python -m repro submit 1 --separation 12 --output plan.json
    python -m repro loadgen --clients 200 --seed 0

Every command prints the same rows the paper reports and exits non-zero
on failure, so the CLI doubles as a smoke test in CI.

Every subcommand accepts ``--trace FILE``: it activates the tracer in
:mod:`repro.obs` for the run and streams every closed span (plus a
final metrics snapshot) to ``FILE`` as JSON lines.

The experiment-scale subcommands (``sweep``, ``table1``, ``report``)
additionally accept ``--workers N`` (fan the independent runs out over
worker processes; results are byte-identical to ``--workers 1``) and
``--cache-dir DIR`` (persist the content-addressed disk-map cache
across invocations).
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Optimal Marching of Autonomous "
        "Networked Robots' (ICDCS 2016)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL span trace (plus metrics) of the run to FILE",
    )

    # Experiment-scale commands also get the parallel/caching knobs.
    parallel = argparse.ArgumentParser(add_help=False)
    parallel.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for independent runs (default: "
        "$REPRO_WORKERS or 1); output is identical for any N",
    )
    parallel.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist the disk-map cache here, reused across invocations",
    )

    p_scenario = sub.add_parser(
        "scenario", help="run all four methods on one scenario instance",
        parents=[common],
    )
    p_scenario.add_argument("scenario_id", type=int, choices=range(1, 8))
    p_scenario.add_argument("--separation", type=float, default=20.0,
                            help="M1-M2 distance in communication ranges")
    p_scenario.add_argument("--points", type=int, default=400,
                            help="target FoI grid resolution")

    p_sweep = sub.add_parser(
        "sweep", help="Fig. 3-style separation sweep for one scenario",
        parents=[common, parallel],
    )
    p_sweep.add_argument("scenario_id", type=int, choices=range(1, 8))
    p_sweep.add_argument("--separations", type=float, nargs="+",
                         default=[10.0, 40.0, 70.0, 100.0])
    p_sweep.add_argument("--figures", metavar="DIR", default=None,
                         help="also write the two SVG figure panels here")

    sub.add_parser(
        "table1", help="Table I: global connectivity per scenario",
        parents=[common, parallel],
    )
    sub.add_parser(
        "lemmas", help="the Fig. 1 / Lemma 1-2 constructions",
        parents=[common],
    )

    p_report = sub.add_parser(
        "report", help="run all scenarios and write a markdown report",
        parents=[common, parallel],
    )
    p_report.add_argument("--output", default="reproduction_report.md")
    p_report.add_argument("--separation", type=float, default=20.0)
    p_report.add_argument("--scenarios", type=int, nargs="+", default=None,
                          help="subset of scenario ids (default: all)")
    p_report.add_argument("--chaos", action="store_true",
                          help="append a seeded fault-injection sweep and "
                               "its recovery metrics to the report")
    p_report.add_argument("--chaos-seeds", type=int, nargs="+", default=[0],
                          help="seeds for the --chaos sweep (default: 0)")
    p_report.add_argument("--zoo", action="store_true",
                          help="append a procedural scenario-zoo invariant "
                               "campaign (per-family pass/fail table)")
    p_report.add_argument("--zoo-seeds", type=int, default=2, metavar="N",
                          help="seeds per family for the --zoo campaign "
                               "(default: 2)")
    p_report.add_argument("--missions", action="store_true",
                          help="append a streaming-replanning mission "
                               "campaign (per-motion cache and C=1 table)")
    p_report.add_argument("--mission-seeds", type=int, default=1, metavar="N",
                          help="seeds per mission cell for --missions "
                               "(default: 1)")
    p_report.add_argument("--mission-epochs", type=int, default=3, metavar="N",
                          help="target updates per mission for --missions "
                               "(default: 3)")
    p_report.add_argument("--load", action="store_true",
                          help="append a seeded service load-test section "
                               "(latency percentiles + correctness checks)")
    p_report.add_argument("--load-clients", type=int, default=200,
                          help="clients for the --load burst (default: 200)")
    p_report.add_argument("--load-seed", type=int, default=0,
                          help="schedule seed for --load (default: 0)")
    p_report.add_argument("--load-service-workers", type=int, default=2,
                          metavar="N",
                          help="fleet shards for --load (default: 2)")

    p_pipe = sub.add_parser(
        "pipeline", help="run the Fig. 2 pipeline and write its six panels",
        parents=[common],
    )
    p_pipe.add_argument("scenario_id", type=int, choices=range(1, 8))
    p_pipe.add_argument("--output", default="output/fig2")
    p_pipe.add_argument("--separation", type=float, default=15.0)

    p_plan = sub.add_parser(
        "plan",
        help="plan one scenario transition, check its C and report per-stage timings",
        parents=[common],
    )
    p_plan.add_argument("scenario_id", type=int, choices=range(1, 8))
    p_plan.add_argument("--separation", type=float, default=15.0,
                        help="M1-M2 distance in communication ranges")
    p_plan.add_argument("--points", type=int, default=400,
                        help="target FoI grid resolution")
    p_plan.add_argument("--method", choices=("a", "b"), default="a")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep with recovery metrics",
        parents=[common, parallel],
    )
    p_chaos.add_argument("--scenarios", type=int, nargs="+",
                         default=None, metavar="ID",
                         help="scenario ids (default: 1 2 4)")
    p_chaos.add_argument("--archetypes", nargs="+", default=None,
                         metavar="NAME",
                         help="fault archetypes (default: single cluster "
                         "cascade; also: stuck, storm)")
    p_chaos.add_argument("--seeds", type=int, nargs="+", default=[0],
                         help="schedule seeds; same seeds, same summary")
    p_chaos.add_argument("--robots", type=int, default=81,
                         help="robots per case")
    p_chaos.add_argument("--separation", type=float, default=6.0,
                         help="M1-M2 distance in communication ranges")
    p_chaos.add_argument("--output", metavar="FILE", default=None,
                         help="write the canonical JSON summary to FILE")

    p_zoo = sub.add_parser(
        "zoo",
        help="procedural scenario-zoo invariant campaign",
        parents=[common, parallel],
    )
    p_zoo.add_argument("--families", nargs="+", default=["all"],
                       metavar="NAME",
                       help="zoo families (default: all; see repro."
                       "experiments.zoo.FAMILIES)")
    p_zoo.add_argument("--seeds", type=int, default=3, metavar="N",
                       help="seeds per family, 0..N-1 (default: 3)")
    p_zoo.add_argument("--seed-list", type=int, nargs="+", default=None,
                       metavar="SEED",
                       help="explicit seeds (overrides --seeds)")
    p_zoo.add_argument("--robots", type=int, default=36,
                       help="robots per case")
    p_zoo.add_argument("--separation", type=float, default=5.0,
                       help="M1-M2 distance in communication ranges")
    p_zoo.add_argument("--methods", nargs="+", default=None,
                       metavar="METHOD",
                       help="planner methods (default: 'ours (a)' "
                       "'ours (b)')")
    p_zoo.add_argument("--no-shrink", action="store_true",
                       help="keep failing cases at their drawn params "
                       "instead of shrinking them")
    p_zoo.add_argument("--output", metavar="FILE", default=None,
                       help="write the canonical JSON summary to FILE")
    p_zoo.add_argument("--counterexamples", metavar="FILE",
                       default="zoo_counterexamples.json",
                       help="persist replayable failure triples here "
                       "(default: zoo_counterexamples.json; only "
                       "written when there are failures)")
    p_zoo.add_argument("--replay", metavar="JSON_OR_FILE", default=None,
                       help="replay one counterexample triple (inline "
                       "JSON) or every entry of a persisted file, and "
                       "verify byte-identical reproduction")

    p_mission = sub.add_parser(
        "mission",
        help="streaming replanning campaign against moving targets",
        parents=[common, parallel],
    )
    p_mission.add_argument("--families", nargs="+", default=None,
                           metavar="NAME",
                           help="zoo families the targets are drawn from "
                           "(default: corridor annulus; 'all' for every "
                           "family)")
    p_mission.add_argument("--motions", nargs="+", default=None,
                           metavar="MOTION",
                           help="target motions (default: drift deform "
                           "drift+deform)")
    p_mission.add_argument("--seeds", type=int, default=1, metavar="N",
                           help="seeds per cell, 0..N-1 (default: 1)")
    p_mission.add_argument("--seed-list", type=int, nargs="+", default=None,
                           metavar="SEED",
                           help="explicit seeds (overrides --seeds)")
    p_mission.add_argument("--epochs", type=int, default=3,
                           help="target updates per mission (default: 3)")
    p_mission.add_argument("--robots", type=int, default=25,
                           help="robots per mission")
    p_mission.add_argument("--method", choices=("a", "b"), default="a",
                           help="planner method (default: a)")
    p_mission.add_argument("--advance-fraction", type=float, default=0.5,
                           help="fraction of each plan executed before the "
                           "next target lands (default: 0.5)")
    p_mission.add_argument("--output", metavar="FILE", default=None,
                           help="write the canonical JSON summary to FILE")

    p_serve = sub.add_parser(
        "serve",
        help="run the planning service (HTTP, see repro.service)",
        parents=[common, parallel],
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="bind port (0 picks an ephemeral port)")
    p_serve.add_argument("--capacity", type=int, default=64,
                         help="maximum queued jobs before 429 backpressure "
                              "(split evenly across --service-workers)")
    p_serve.add_argument("--service-workers", type=int, default=1,
                         metavar="N",
                         help="shard workers: the job queue is sharded by "
                              "consistent hash of the content address, each "
                              "shard with its own dispatcher pool (default: 1)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock budget (default: none)")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="extra attempts for a failed/timed-out job")
    p_serve.add_argument("--ttl", type=float, default=3600.0,
                         metavar="SECONDS",
                         help="retention of finished jobs and results")
    p_serve.add_argument("--journal-dir", metavar="DIR", default=None,
                         help="write-ahead job journal directory: every job "
                              "transition is fsynced there before it is "
                              "acknowledged, missions checkpoint per epoch, "
                              "and a restart with the same DIR replays the "
                              "journal and resumes (default: no journal)")
    p_serve.add_argument("--no-journal-fsync", action="store_true",
                         help="skip the per-append fsync (tests only; "
                              "forfeits the kill -9 durability claim)")

    p_loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop load test of the planning service",
        parents=[common],
    )
    p_loadgen.add_argument("--clients", type=int, default=200,
                           help="concurrent clients to replay (default: 200)")
    p_loadgen.add_argument("--duplicate-fraction", type=float, default=0.5,
                           help="fraction of clients that resubmit an "
                                "already-scheduled request (default: 0.5)")
    p_loadgen.add_argument("--arrival-rate", type=float, default=200.0,
                           metavar="HZ",
                           help="open-loop arrival rate (default: 200/s)")
    p_loadgen.add_argument("--seed", type=int, default=0,
                           help="schedule seed; same seed, same traffic")
    p_loadgen.add_argument("--stream-every", type=int, default=0, metavar="K",
                           help="every Kth client follows its job over the "
                                "SSE events endpoint (default: 0 = off)")
    p_loadgen.add_argument("--points", type=int, default=200,
                           help="foi_target_points per request (default: 200)")
    p_loadgen.add_argument("--grid-target", type=int, default=600,
                           help="lloyd_grid_target per request (default: 600)")
    p_loadgen.add_argument("--resolution", type=int, default=12,
                           help="metric resolution per request (default: 12)")
    p_loadgen.add_argument("--timeout", type=float, default=300.0,
                           help="per-client deadline in seconds")
    p_loadgen.add_argument("--max-inflight", type=int, default=256,
                           help="socket concurrency bound (default: 256)")
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=None,
                           help="attach to a running service; omit to boot "
                                "a fresh in-process fleet instead")
    p_loadgen.add_argument("--service-workers", type=int, default=2,
                           metavar="N",
                           help="fleet shards for the self-contained mode "
                                "(ignored with --port; default: 2)")
    p_loadgen.add_argument("--no-journal", action="store_true",
                           help="skip the journal + restart-recovery probe "
                                "in the self-contained mode (ignored with "
                                "--port)")
    p_loadgen.add_argument("--output", metavar="FILE", default=None,
                           help="write the canonical summary bytes to FILE")

    p_submit = sub.add_parser(
        "submit",
        help="submit a plan request to a running service and fetch it",
    )
    p_submit.add_argument("scenario_ids", type=int, nargs="+",
                          choices=range(1, 8))
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8642)
    p_submit.add_argument("--separation", type=float, default=20.0)
    p_submit.add_argument("--methods", nargs="+", default=None,
                          metavar="METHOD",
                          help="subset of the harness methods (default: all)")
    p_submit.add_argument("--points", type=int, default=500,
                          help="target FoI grid resolution")
    p_submit.add_argument("--grid-target", type=int, default=2000,
                          help="Lloyd coverage grid resolution")
    p_submit.add_argument("--resolution", type=int, default=32,
                          help="metric sampling resolution")
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for the job to finish")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="submit and print the job id without polling")
    p_submit.add_argument("--retries", type=int, default=0,
                          help="client retry budget for transient failures "
                          "(connection refused, 429 backpressure, 503 drain)")
    p_submit.add_argument("--output", metavar="FILE", default=None,
                          help="also write the plan document (JSON) to FILE")
    return parser


def _write(path: str, data: bytes) -> Path:
    """Write ``data`` to ``path``, creating parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(data)
    return out


def _emit(text: str, payload: bytes, output: str | None, passed: bool) -> int:
    """Finish a result command: print its rendering, write ``payload`` to
    ``--output`` when given, and exit 0 iff ``passed``."""
    print(text)
    if output:
        print(f"wrote {_write(output, payload)}")
    return 0 if passed else 1


def _render_run(run) -> str:
    """The D / L / C table of one :class:`~repro.experiments.ScenarioRun`,
    methods in the run's order."""
    from repro.experiments import format_table

    rows = [
        [
            method,
            f"{e.total_distance / 1000:.1f} km",
            f"{e.stable_link_ratio:.3f}",
            e.connectivity_flag,
        ]
        for method, e in run.evaluations.items()
    ]
    return (
        f"Scenario {run.scenario_id} at {run.separation_factor:g}x r_c:\n"
        + format_table(["method", "D", "L", "C"], rows)
    )


def _cmd_scenario(args) -> int:
    from repro.experiments import get_scenario, run_scenario

    run = run_scenario(
        get_scenario(args.scenario_id),
        separation_factor=args.separation,
        foi_target_points=args.points,
    )
    print(_render_run(run))
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments import (
        DEFAULT_METHODS,
        get_scenario,
        render_sweep,
        sweep_separations,
        write_sweep_figures,
    )

    sweep = sweep_separations(
        get_scenario(args.scenario_id),
        separation_factors=tuple(args.separations),
        workers=args.workers,
    )
    print(render_sweep(sweep, list(DEFAULT_METHODS)))
    if args.figures:
        for path in write_sweep_figures(sweep, args.figures):
            print(f"wrote {path}")
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments import (
        DEFAULT_METHODS,
        get_scenario,
        render_table1,
        run_scenarios,
    )

    runs = run_scenarios(
        [get_scenario(sid) for sid in range(1, 8)],
        separation_factor=20.0,
        workers=args.workers,
    )
    print(render_table1(runs, list(DEFAULT_METHODS)))
    ours_ok = all(
        runs[sid].evaluations[m].globally_connected
        for sid in runs
        for m in ("ours (a)", "ours (b)")
    )
    return 0 if ours_ok else 1


def _cmd_lemmas(args) -> int:
    from repro.experiments import format_table, lemma1_example, lemma2_example

    l1 = lemma1_example()
    print("Lemma 1 (Fig. 1a):")
    print(format_table(
        ["assignment", "D", "links kept"],
        [
            ["link-preserving", f"{l1.preserving_distance:.3f}", l1.preserving_links],
            ["minimum-distance", f"{l1.min_distance:.3f}", l1.min_distance_links],
        ],
    ))
    l2 = lemma2_example()
    print(f"\nLemma 2 (Fig. 1b): best of 5040 assignments keeps "
          f"{l2.best_preserved}/{l2.total_links} links")
    ok = l1.tradeoff_holds and l2.full_preservation_impossible
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from repro.experiments.report import write_report

    path = write_report(
        args.output,
        separation_factor=args.separation,
        scenario_ids=args.scenarios,
        workers=args.workers,
        chaos=args.chaos,
        chaos_seeds=args.chaos_seeds,
        zoo=args.zoo,
        zoo_seeds=args.zoo_seeds,
        missions=args.missions,
        mission_seeds=args.mission_seeds,
        mission_epochs=args.mission_epochs,
        load=args.load,
        load_clients=args.load_clients,
        load_seed=args.load_seed,
        load_service_workers=args.load_service_workers,
    )
    print(f"wrote {path}")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.experiments import get_scenario
    from repro.marching import run_pipeline
    from repro.robots import RadioSpec, Swarm
    from repro.viz import render_pipeline_figure

    spec = get_scenario(args.scenario_id)
    radio = RadioSpec.from_comm_range(spec.comm_range)
    m1, m2 = spec.build(separation_factor=args.separation)
    swarm = Swarm.deploy_lattice(m1, spec.robot_count, radio)
    stages = run_pipeline(swarm, m2)
    for path in render_pipeline_figure(stages, args.output, spec.comm_range):
        print(f"wrote {path}")
    return 0


def _cmd_plan(args) -> int:
    from repro.experiments import get_scenario
    from repro.marching import MarchingConfig, run_pipeline
    from repro.metrics import connectivity_report
    from repro.obs import get_tracer
    from repro.robots import RadioSpec, Swarm

    spec = get_scenario(args.scenario_id)
    radio = RadioSpec.from_comm_range(spec.comm_range)
    m1, m2 = spec.build(separation_factor=args.separation)
    swarm = Swarm.deploy_lattice(m1, spec.robot_count, radio)
    cfg = MarchingConfig(method=args.method, foi_target_points=args.points)
    stages = run_pipeline(swarm, m2, config=cfg)
    result = stages.result
    print(
        f"Scenario {args.scenario_id}: planned {swarm.size} robots "
        f"(method {args.method})"
    )
    print(
        f"  rotation angle : {result.rotation_angle:.4f} rad "
        f"({result.rotation_evaluations} objective evaluations)"
    )
    print(f"  total distance : {result.total_distance / 1000:.2f} km")
    report = connectivity_report(
        result.trajectory, result.links.comm_range, result.boundary_anchors
    )
    print(f"  connectivity   : C = {int(report.connected)} "
          f"({report.samples} instants)")
    tracer = get_tracer()
    if tracer.enabled:
        print("  phase timings:")
        for name, row in tracer.phase_timings().items():
            print(
                f"    {name:34s} {row['calls']:5d} calls "
                f"{row['total_s'] * 1000:10.2f} ms"
            )
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.chaos import (
        DEFAULT_ARCHETYPES,
        DEFAULT_SCENARIOS,
        ChaosConfig,
        chaos_sweep,
        render_chaos,
    )
    from repro.faults import ARCHETYPES
    from repro.io import dumps_canonical

    archetypes = tuple(args.archetypes or DEFAULT_ARCHETYPES)
    unknown = [a for a in archetypes if a not in ARCHETYPES]
    if unknown:
        print(f"error: unknown archetypes {unknown}; valid: "
              f"{list(ARCHETYPES)}", file=sys.stderr)
        return 2
    config = ChaosConfig(
        robot_count=args.robots, separation_factor=args.separation
    )
    summary = chaos_sweep(
        scenario_ids=tuple(args.scenarios or DEFAULT_SCENARIOS),
        archetypes=archetypes,
        seeds=tuple(args.seeds),
        config=config,
        workers=args.workers,
    )
    # Binary-outcome guarantee: a case that is neither recovered nor a
    # typed unrecoverable never reaches this point (it would have
    # raised); exit non-zero only if a recovered case broke C=1.
    return _emit(
        render_chaos(summary),
        dumps_canonical(summary),
        args.output,
        summary["summary"]["connected_all"],
    )


def _cmd_zoo(args) -> int:
    import json as json_module

    from repro.errors import ScenarioError
    from repro.experiments.zoo import (
        FAMILIES,
        ZooConfig,
        render_zoo,
        replay_counterexample,
        zoo_campaign,
    )
    from repro.io import dumps_canonical

    config = ZooConfig(
        robot_count=args.robots,
        separation_factor=args.separation,
        methods=tuple(args.methods) if args.methods else ("ours (a)", "ours (b)"),
        shrink=not args.no_shrink,
    )

    if args.replay:
        source = Path(args.replay)
        try:
            text = source.read_text() if source.exists() else args.replay
            parsed = json_module.loads(text)
        except (OSError, json_module.JSONDecodeError) as exc:
            print(f"error: cannot parse --replay argument: {exc}",
                  file=sys.stderr)
            return 2
        entries = parsed if isinstance(parsed, list) else [parsed]
        all_reproduced = True
        for entry in entries:
            doc, matches = replay_counterexample(entry, config)
            verdict = "byte-identical" if matches else "DIVERGED"
            print(
                f"replay {doc['family']} seed {doc['seed']}: "
                f"outcome={doc['outcome']} reproduction={verdict}"
            )
            all_reproduced = all_reproduced and matches
        return 0 if all_reproduced else 1

    families = tuple(FAMILIES) if "all" in args.families else tuple(args.families)
    seeds = tuple(args.seed_list) if args.seed_list else tuple(range(args.seeds))
    try:
        summary = zoo_campaign(
            families=families,
            seeds=seeds,
            config=config,
            workers=args.workers,
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = _emit(
        render_zoo(summary),
        dumps_canonical(summary),
        args.output,
        summary["summary"]["all_pass"],
    )
    if summary["counterexamples"] and args.counterexamples:
        ce = _write(
            args.counterexamples,
            json_module.dumps(
                summary["counterexamples"], indent=2, sort_keys=True
            ).encode("utf-8"),
        )
        print(f"wrote {len(summary['counterexamples'])} counterexample(s) "
              f"to {ce}")
    return code


def _cmd_mission(args) -> int:
    from repro.errors import MissionError
    from repro.experiments.missions import (
        DEFAULT_FAMILIES,
        mission_campaign,
        missions_passed,
        render_missions,
    )
    from repro.experiments.zoo import FAMILIES
    from repro.io import dumps_canonical
    from repro.missions import MOTIONS, MissionConfig

    if args.families and "all" in args.families:
        families = tuple(FAMILIES)
    else:
        families = tuple(args.families) if args.families else DEFAULT_FAMILIES
    motions = tuple(args.motions) if args.motions else tuple(MOTIONS)
    seeds = (
        tuple(args.seed_list) if args.seed_list else tuple(range(args.seeds))
    )
    try:
        config = MissionConfig(
            robot_count=args.robots,
            method=args.method,
            advance_fraction=args.advance_fraction,
        )
        summary = mission_campaign(
            families=families,
            motions=motions,
            seeds=seeds,
            epochs=args.epochs,
            config=config,
            workers=args.workers,
        )
    except MissionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(
        render_missions(summary),
        dumps_canonical(summary),
        args.output,
        missions_passed(summary),
    )


def _cmd_serve(args) -> int:
    from repro import service as service_module
    from repro.exec import get_cache, resolve_workers
    from repro.obs import get_metrics, get_tracer

    # Under --trace the ambient tracer/metrics pair is the traced one
    # main() installed; hand it to the service so every server span
    # (admission, queue wait, solve, serialize) streams to the sink
    # exactly like any other subcommand's spans.  --cache-dir likewise
    # arrives as the ambient cache activated by _dispatch.
    tracer = get_tracer()
    service = service_module.PlanningService(
        host=args.host,
        port=args.port,
        capacity=args.capacity,
        dispatchers=max(1, resolve_workers(args.workers)),
        service_workers=max(1, args.service_workers),
        job_timeout_s=args.job_timeout,
        retries=args.retries,
        ttl_s=args.ttl,
        journal_dir=args.journal_dir,
        journal_fsync=not args.no_journal_fsync,
        tracer=tracer if tracer.enabled else None,
        metrics=get_metrics(),
        cache=get_cache(),
    )
    service.start()
    # getattr: CLI tests stub PlanningService with a minimal fake.
    if getattr(service, "journal", None) is not None:
        recovered = service.recovery.get("jobs_restored", 0)
        print(
            f"journal at {service.journal.directory}: "
            f"{service.recovery.get('journal_records', 0)} records replayed, "
            f"{recovered} jobs restored "
            f"({service.recovery.get('jobs_requeued', 0)} requeued, "
            f"{service.recovery.get('jobs_retried', 0)} retried) in "
            f"{service.recovery.get('replay_s', 0.0):.3f}s",
            flush=True,
        )
    print(
        f"repro service listening on http://{service.host}:{service.port}",
        flush=True,
    )

    # SIGTERM gets the same graceful path as Ctrl-C: drain (missions
    # checkpoint-and-release at their epoch boundary), then exit 0.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        service.wait()
    except KeyboardInterrupt:
        print("interrupt: draining jobs and shutting down", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.stop()
    return 0


def _cmd_loadgen(args) -> int:
    from repro.experiments.loadgen import (
        LoadgenConfig,
        loadgen_passed,
        render_loadgen,
        run_loadgen,
        run_loadgen_fleet,
        summary_bytes,
    )

    config = LoadgenConfig(
        clients=args.clients,
        duplicate_fraction=args.duplicate_fraction,
        arrival_rate_hz=args.arrival_rate,
        seed=args.seed,
        stream_every=args.stream_every,
        foi_target_points=args.points,
        lloyd_grid_target=args.grid_target,
        resolution=args.resolution,
        timeout_s=args.timeout,
        max_inflight=args.max_inflight,
    )
    if args.port is not None:
        summary = run_loadgen(config, port=args.port, host=args.host)
    else:
        summary = run_loadgen_fleet(
            config,
            service_workers=max(1, args.service_workers),
            journal=not args.no_journal,
        )
    return _emit(
        render_loadgen(summary),
        summary_bytes(summary),
        args.output,
        loadgen_passed(summary),
    )


def _cmd_submit(args) -> int:
    import json

    from repro.io import scenario_run_from_dict
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port, retries=args.retries)
    submitted = client.submit(
        args.scenario_ids,
        separation_factor=args.separation,
        methods=args.methods,
        priority=args.priority,
        foi_target_points=args.points,
        lloyd_grid_target=args.grid_target,
        resolution=args.resolution,
    )
    job_id = submitted["job_id"]
    dedup = " (deduplicated)" if submitted.get("deduplicated") else ""
    print(f"job {job_id}: {submitted['state']}{dedup}")
    if args.no_wait:
        return 0
    status = client.wait(job_id, timeout=args.timeout)
    if status["state"] != "done":
        print(f"job {job_id} {status['state']}: {status.get('error')}",
              file=sys.stderr)
        return 1
    payload = client.result_bytes(job_id)
    document = json.loads(payload)
    runs = document.get("runs")
    if isinstance(runs, dict):
        # Canonical bytes sort the keys, so methods come out sorted.
        text = "\n".join(
            _render_run(scenario_run_from_dict(runs[sid]))
            for sid in sorted(runs, key=int)
        )
    else:
        text = json.dumps(document, indent=2, sort_keys=True)
    return _emit(text, payload, args.output, True)


_COMMANDS = {
    "scenario": _cmd_scenario,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "lemmas": _cmd_lemmas,
    "report": _cmd_report,
    "chaos": _cmd_chaos,
    "zoo": _cmd_zoo,
    "mission": _cmd_mission,
    "pipeline": _cmd_pipeline,
    "plan": _cmd_plan,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "submit": _cmd_submit,
}


def _dispatch(args) -> int:
    """Run the selected command, under a disk-backed cache if requested."""
    if getattr(args, "cache_dir", None):
        from repro.exec import activate_cache, disk_backed_cache

        with activate_cache(disk_backed_cache(args.cache_dir)):
            return _COMMANDS[args.command](args)
    return _COMMANDS[args.command](args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", None):
        from repro.obs import (
            JsonlSink,
            Metrics,
            Tracer,
            activate,
            activate_metrics,
        )

        try:
            sink_cm = JsonlSink(args.trace)
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 2
        with sink_cm as sink:
            tracer = Tracer(sink=sink)
            metrics = Metrics()
            with activate(tracer), activate_metrics(metrics):
                code = _dispatch(args)
            sink.emit_metrics(metrics)
        return code
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
