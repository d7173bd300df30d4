#!/usr/bin/env python
"""End-to-end smoke checks, one per subsystem, through real processes.

Run:  PYTHONPATH=src python scripts/smoke.py <name>

CI runs each name in :data:`SMOKES` as one entry of its ``smoke`` job:

* ``service`` - ``repro serve`` answers ``/healthz``, serves a plan
  byte-identical to a direct ``run_scenarios`` run, exits 0 on SIGINT;
* ``chaos`` / ``zoo`` / ``mission`` - the campaign CLI, serial and with
  ``--workers 2``, writes byte-identical summaries whose every case
  holds the campaign's contract (typed chaos outcomes with C = 1 after
  recovery; every zoo invariant plus ``--replay`` round trips; C = 1
  and a disk-map cache hit on every mission) and rejects bad input;
* ``scaling`` - the 10 000-robot unit-disk graph builds in under 2 s
  and 100 MB, 1 000 robots cost well under 100x what 100 do, and on a
  10 000-robot zoo ``rough/0`` plan the certified
  ``connectivity_report`` equals the uncertified sampler's, field for
  field (both wall-clocks printed, no time bound);
* ``load`` - two seeded 200-client bursts against two fresh servers,
  each one job queue with 2 dispatchers: exact dedup, zero 5xx, p99
  budgets, identical summaries;
* ``crash`` - SIGKILL at mission epochs 1 and 2 and a SIGTERM drain lose
  no acknowledged job and resume the mission byte-identically.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from repro.experiments.crashrec import (
    CrashRecConfig,
    boot_server,
    graceful_shutdown,
)
from repro.io import canonical_digest

CHAOS_MATRIX = [
    "--scenarios", "1", "2",
    "--archetypes", "single", "cascade", "stuck",
    "--seeds", "0",
]
ZOO_MATRIX = ["--families", "corridor", "star", "--seeds", "2"]
MISSION_MATRIX = [
    "--families", "corridor",
    "--motions", "drift",
    "--seeds", "1",
    "--epochs", "3",
]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro ARGS`` in a subprocess, echoing its output."""
    cmd = [sys.executable, "-m", "repro", *args]
    print(f"$ {' '.join(cmd)}")
    proc = subprocess.run(cmd, text=True, capture_output=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc


def run_matrix(command: str, matrix: list[str], tmp: Path) -> dict:
    """Run a campaign serial and with ``--workers 2``; both must exit 0
    and write byte-identical summaries.  Returns the parsed summary."""
    payloads = []
    for workers in (1, 2):
        out = tmp / f"{command}-w{workers}.json"
        proc = run_cli(
            command, *matrix, "--workers", str(workers), "--output", str(out)
        )
        assert proc.returncode == 0, f"--workers {workers}: exit {proc.returncode}"
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1], (
        f"{command} summaries differ between worker counts"
    )
    print(f"byte-identical summaries: {len(payloads[0])} bytes")
    return json.loads(payloads[0])


@contextmanager
def served(config: CrashRecConfig):
    """A journal-less ``repro serve`` that must exit 0 on SIGINT."""
    server = boot_server(None, config)
    print(f"server on port {server.port}")
    try:
        yield server
    finally:
        code = graceful_shutdown(server)
        print(f"server exited {code}")
        assert code == 0, f"server exited {code}"


def smoke_service(tmp: Path) -> None:
    from repro.experiments import get_scenario, run_scenarios
    from repro.io import dumps_canonical, plan_document
    from repro.service import ServiceClient

    knobs = dict(foi_target_points=200, lloyd_grid_target=600, resolution=12)
    methods = ["ours (a)", "Hungarian"]
    with served(CrashRecConfig(dispatchers=1)) as server:
        client = ServiceClient(port=server.port, timeout=60.0)
        health = client.healthz()
        assert health["status"] == "ok", health
        print("healthz before: ok")

        submitted = client.submit(
            [1], separation_factor=12.0, methods=methods, **knobs
        )
        print(f"submitted {submitted['job_id']} ({submitted['state']})")
        status = client.wait(submitted["job_id"], timeout=600.0, poll_s=0.2)
        assert status["state"] == "done", status
        fetched = client.result_bytes(submitted["job_id"])
        print(f"fetched result: {len(fetched)} bytes")

        direct = run_scenarios(
            [get_scenario(1)],
            separation_factor=12.0,
            methods=tuple(methods),
            workers=1,
            **knobs,
        )
        assert fetched == dumps_canonical(plan_document(direct))
        print("byte-identity vs direct run_scenarios: OK")

        health = client.healthz()
        assert health["status"] == "ok", health
        print("healthz after: ok")


def smoke_chaos(tmp: Path) -> None:
    doc = run_matrix("chaos", CHAOS_MATRIX, tmp)
    agg = doc["summary"]
    assert agg["cases"] == len(doc["cases"]) > 0, agg
    for case in doc["cases"]:
        outcome = case["outcome"]
        assert outcome in ("recovered", "unrecoverable"), case
        if outcome == "recovered":
            assert case["metrics"]["connected_all"], case
        else:
            assert case["stage"], case
    assert agg["recovered"] + agg["unrecoverable"] == agg["cases"]
    assert agg["recovered"] > 0, "no case recovered - broken executor?"
    print(
        f"{agg['recovered']}/{agg['cases']} recovered, "
        f"{agg['replans_total']} replans; recovery metrics present"
    )


def smoke_zoo(tmp: Path) -> None:
    summary = run_matrix("zoo", ZOO_MATRIX, tmp)
    agg = summary["summary"]
    assert agg["all_pass"], agg
    assert agg["cases"] == len(summary["cases"]) > 0, agg
    assert summary["counterexamples"] == [], summary["counterexamples"]
    for family, fam in summary["families"].items():
        assert fam["passed"] == fam["cases"], (family, fam)
        assert all(v == 0 for v in fam["invariant_failures"].values())

    # Counterexample-replay round trip: a triple built from a case
    # document must reproduce that document byte for byte.
    case = summary["cases"][0]
    entry = {
        "family": case["family"],
        "seed": case["seed"],
        "params": case["params"],
        "case_sha256": canonical_digest(case),
    }
    triple = tmp / "triple.json"
    triple.write_text(json.dumps(entry))
    proc = run_cli("zoo", "--replay", str(triple))
    assert proc.returncode == 0, f"replay exit {proc.returncode}"
    assert "byte-identical" in proc.stdout, proc.stdout
    print("replay round-trip: byte-identical")

    # A tampered digest must be caught.
    entry["case_sha256"] = "0" * 64
    triple.write_text(json.dumps(entry))
    proc = run_cli("zoo", "--replay", str(triple))
    assert proc.returncode != 0, "tampered replay not flagged"
    assert "DIVERGED" in proc.stdout, proc.stdout
    print("tampered replay flagged: DIVERGED")


def smoke_scaling(tmp: Path) -> None:
    import tracemalloc

    import numpy as np

    from repro.network import udg_edges

    def udg(n: int) -> tuple[np.ndarray, float, int]:
        """UDG of a seeded uniform swarm at constant density (mean degree
        near 10): ``(edges, seconds, tracemalloc peak bytes)``."""
        side = np.sqrt(n * np.pi * 80.0**2 / 10.0)
        pts = np.random.default_rng(0).uniform(0.0, side, size=(n, 2))
        tracemalloc.start()
        t0 = time.perf_counter()
        edges = udg_edges(pts, 80.0)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return edges, seconds, peak

    # 10x the robots must not cost 100x the time (the quadratic
    # signature); the 1e-3 s floor keeps the ratio meaningful when the
    # small size is too fast to time.
    ratio = udg(1_000)[1] / max(udg(100)[1], 1e-3)
    print(f"UDG t(1000)/t(100) = {ratio:.1f}")
    assert ratio < 30.0, f"UDG scaling ratio {ratio:.1f}"

    edges, seconds, peak = udg(10_000)
    print(f"10k-robot UDG: {len(edges)} edges in {seconds:.3f}s, peak {peak / 1e6:.1f} MB")
    assert seconds < 2.0, f"10k UDG took {seconds:.2f}s"
    assert peak < 100e6, f"10k UDG peaked at {peak / 1e6:.0f} MB"
    assert np.all(edges[:, 0] < edges[:, 1]), "edge list not canonical"

    from repro.experiments.zoo.campaign import ZooConfig, build_zoo_scenario
    from repro.marching import MarchingPlanner
    from repro.metrics import ConnectivityReport, connectivity_report, isolated_counts
    from repro.robots import SwarmTrajectory

    zoo = ZooConfig(robot_count=10_000, foi_target_points=3000,
                    grid_target=30_000, separation_factor=5.0)
    scenario = build_zoo_scenario("rough", 0, zoo)
    plan = MarchingPlanner(zoo.marching_config("ours (a)")).plan(
        scenario.swarm, scenario.m2, source_foi=scenario.m1
    )
    traj, comm_range = plan.trajectory, plan.links.comm_range
    anchors = [int(a) for a in plan.boundary_anchors]

    def sampled(fresh):
        """``connectivity_report``'s fields from ``isolated_counts`` with no
        certified links: every instant sampled."""
        right, left = fresh.sample_times(32), fresh.discontinuity_times()
        counts = np.concatenate([
            isolated_counts(fresh, comm_range, anchors, right),
            isolated_counts(fresh, comm_range, anchors, left, side="left"),
        ])
        failed = counts > 0
        return ConnectivityReport(
            connected=not failed.any(),
            first_failure_time=(float(np.concatenate([right, left])[failed].min())
                                if failed.any() else None),
            max_isolated=int(counts.max(initial=0)),
            samples=len(counts),
            left_limit_isolated=int(counts[len(right):].max(initial=0)),
        )

    reports = {}
    for name, check in (
        ("certified", lambda fresh: connectivity_report(fresh, comm_range, anchors)),
        ("sampled", sampled),
    ):
        # A fresh trajectory each time, so neither run reuses the other's
        # cached row tables.
        fresh = SwarmTrajectory(traj.offsets, traj.times, traj.xy,
                                traj.t_start, traj.t_end)
        t0 = time.perf_counter()
        reports[name] = check(fresh)
        print(f"10k rough/0 C check, {name}: "
              f"{time.perf_counter() - t0:.3f}s {reports[name]}")
    assert reports["certified"] == reports["sampled"], "certified C report differs"


def smoke_load(tmp: Path) -> None:
    from repro.experiments.loadgen import (
        LoadgenConfig,
        loadgen_passed,
        render_loadgen,
        run_loadgen,
        summary_bytes,
    )

    config = LoadgenConfig(
        clients=200,
        duplicate_fraction=0.95,  # 10 unique plans, 190 dedup hits
        arrival_rate_hz=400.0,
        seed=0,
        stream_every=20,  # every 20th client consumes the SSE stream
        foi_target_points=120,
        lloyd_grid_target=300,
        resolution=10,
        timeout_s=600.0,
    )
    # Generous budgets: CI runners are slow and shared.  "plan"/"result"
    # are single HTTP round-trips; "job" is end-to-end completion latency
    # (queue wait behind the whole burst + solve), so it gets its own.
    p99_budget_ms = {"plan": 5_000.0, "result": 5_000.0, "job": 180_000.0}
    payloads = []
    for burst in (1, 2):
        with served(CrashRecConfig(dispatchers=2)) as server:
            summary = run_loadgen(config, port=server.port)
        print(f"--- burst {burst}/2 ---")
        print(render_loadgen(summary))
        canonical = summary["canonical"]
        assert canonical["dedup_exact"], canonical
        assert canonical["dedup_hits"] == config.clients - canonical["uniques"]
        assert canonical["jobs_created"] == canonical["uniques"]
        assert canonical["zero_5xx"], summary["timing"]["errors"]
        assert canonical["retry_after_correct"]
        assert canonical["all_clients_completed"]
        assert canonical["results_byte_identical"]
        for endpoint, stats in summary["timing"]["endpoints"].items():
            assert stats["p99_ms"] <= p99_budget_ms[endpoint], (endpoint, stats)
        assert loadgen_passed(summary)
        payloads.append(summary_bytes(summary))
    assert payloads[0] == payloads[1], (
        "canonical summary differs across fresh servers for the same seed"
    )
    print("canonical summary byte-identical across fresh servers: OK")


def smoke_mission(tmp: Path) -> None:
    summary = run_matrix("mission", MISSION_MATRIX, tmp)
    agg = summary["summary"]
    assert agg["connected_all"], agg
    assert agg["passed"] == agg["cells"] > 0, agg
    assert agg["errors"] == 0, agg
    assert agg["cache_hits_total"] >= 1, (
        "drifting target never hit the disk-map cache", agg
    )
    for cell in summary["cells"]:
        assert cell["outcome"] == "pass", cell
        assert cell["c_violations"] == 0, cell
        assert cell["mission_sha256"], cell
    print(
        f"C = 1 everywhere; {agg['cache_hits_total']} cache hits over "
        f"{agg['replans_total']} replans"
    )

    # A bad motion must fail loudly, not degrade silently.
    proc = run_cli("mission", "--motions", "teleport")
    assert proc.returncode != 0, "unknown motion not rejected"
    assert "unknown mission motion" in proc.stderr, proc.stderr
    print("unknown motion rejected: OK")


def smoke_crash(tmp: Path) -> None:
    from repro.experiments.crashrec import (
        crashrec_passed,
        expected_mission_bytes,
        render_crashrec,
        run_crashrec,
    )

    base = CrashRecConfig(
        seed=0,
        epochs=3,
        kill_epoch=1,
        plan_jobs=2,
        robot_count=16,
        foi_target_points=100,
        grid_target=300,
        lloyd_max_iterations=8,
        resolution=4,
    )
    cases = [
        ("SIGKILL @ epoch 1", base, "SIGKILL"),
        # Kill later in a longer mission: the checkpoint cursor must
        # have advanced past epoch 2, and >= 2 epochs of runway keep the
        # kill landing while the mission is still running.
        ("SIGKILL @ epoch 2", replace(base, epochs=4, kill_epoch=2), "SIGKILL"),
        # SIGTERM needs runway: the drain interrupt fires at the *next*
        # epoch boundary after the signal, so leave several epochs
        # outstanding.
        ("SIGTERM drain", replace(base, epochs=5), "SIGTERM"),
    ]
    for index, (label, config, sig) in enumerate(cases):
        journal = tmp / f"journal-{index}"
        summary = run_crashrec(
            config, str(journal), sig=sig,
            baseline=expected_mission_bytes(config),
        )
        print(f"--- case {label} ---")
        print(render_crashrec(summary))
        assert crashrec_passed(summary), summary
        canonical = summary["canonical"]
        assert canonical["zero_lost_acked"], canonical["lost_acked"]
        assert canonical["mission_byte_identical"]
        if sig == "SIGKILL":
            assert summary["timing"]["crash_exit_code"] == -9, summary["timing"]
            assert canonical["mission_provenance"] == "retried", canonical
            assert canonical["epochs_streamed_before_crash"] >= config.kill_epoch
        else:
            assert summary["timing"]["crash_exit_code"] == 0, summary["timing"]
    print("all cases recovered with zero lost acknowledged jobs and "
          "byte-identical mission documents")


#: every smoke check by name, in CI matrix order.
SMOKES = {
    "service": smoke_service,
    "chaos": smoke_chaos,
    "zoo": smoke_zoo,
    "scaling": smoke_scaling,
    "load": smoke_load,
    "mission": smoke_mission,
    "crash": smoke_crash,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=list(SMOKES))
    name = parser.parse_args(argv).name
    with tempfile.TemporaryDirectory(prefix=f"repro-smoke-{name}-") as tmp:
        SMOKES[name](Path(tmp))
    print(f"{name} smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
