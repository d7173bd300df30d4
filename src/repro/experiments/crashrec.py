"""Crash-recovery chaos harness: prove the service survives ``kill -9``.

The journal + checkpoint layer makes two falsifiable promises:

1. **Zero lost acknowledged jobs** - any job a client saw ``done``
   before the crash is still ``done``, with byte-identical result
   bytes, after a restart on the same ``--journal-dir``.
2. **Byte-identical mission documents** - a mission killed mid-flight
   resumes from its last durable epoch checkpoint, and its final
   document is byte-for-byte the document an *uninterrupted* run
   produces (computed in-process here as the oracle).

This module boots ``python -m repro serve --journal-dir ...`` as a
subprocess, loads it with plan jobs plus a streaming mission, delivers
``SIGKILL`` at a seeded instant - after the ``kill_epoch``-th ``epoch``
SSE event, which the checkpoint commit order guarantees is durable -
then restarts the server on the same journal and asserts both promises.
The ``SIGTERM`` flavour exercises the graceful path instead: the drain
must announce itself on the SSE stream, the in-flight mission must
checkpoint-and-release at its epoch boundary (an ``interrupted``
event), the process must exit 0, and the restarted server must still
finish the mission byte-identically.

Used by ``scripts/smoke.py crash`` (the ``crash`` entry of the CI
``smoke`` job) and the crash-recovery pytest e2e tests; the smoke
runner's ``service`` and ``load`` checks boot their servers through
:func:`boot_server` too.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ServiceError
from repro.io import canonical_digest, dumps_canonical
from repro.service import ServiceClient

__all__ = [
    "CrashRecConfig",
    "boot_server",
    "crashrec_passed",
    "expected_mission_bytes",
    "graceful_shutdown",
    "render_crashrec",
    "run_crashrec",
]

_BANNER = "repro service listening on "


@dataclass(frozen=True)
class CrashRecConfig:
    """One seeded crash-recovery case (CI-sized defaults).

    ``kill_epoch`` is the seeded kill instant: the signal is sent the
    moment the client has streamed that many ``epoch`` events, so the
    checkpoint for every observed epoch is durable by construction
    (checkpoints commit before their epoch event is published).
    """

    seed: int = 0
    family: str = "corridor"
    motion: str = "drift"
    epochs: int = 3
    kill_epoch: int = 1
    plan_jobs: int = 2
    robot_count: int = 16
    foi_target_points: int = 100
    grid_target: int = 300
    lloyd_max_iterations: int = 8
    resolution: int = 4
    service_workers: int = 1
    dispatchers: int = 2
    timeout_s: float = 180.0

    def __post_init__(self) -> None:
        if not (0 < self.kill_epoch <= self.epochs):
            raise ServiceError(
                f"kill_epoch must lie in [1, epochs], got {self.kill_epoch}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "family": self.family,
            "motion": self.motion,
            "epochs": self.epochs,
            "kill_epoch": self.kill_epoch,
            "plan_jobs": self.plan_jobs,
            "robot_count": self.robot_count,
            "foi_target_points": self.foi_target_points,
            "grid_target": self.grid_target,
            "lloyd_max_iterations": self.lloyd_max_iterations,
            "resolution": self.resolution,
            "service_workers": self.service_workers,
        }

    def mission_spec(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "seed": self.seed,
            "epochs": self.epochs,
            "motion": self.motion,
        }

    def mission_config(self) -> dict[str, Any]:
        return {
            "robot_count": self.robot_count,
            "foi_target_points": self.foi_target_points,
            "grid_target": self.grid_target,
            "lloyd_max_iterations": self.lloyd_max_iterations,
            "resolution": self.resolution,
        }

    def plan_request(self, index: int) -> dict[str, Any]:
        """The ``index``-th plan body (distinct content addresses)."""
        return {
            "scenario_ids": [1],
            "separation_factor": 10.0 + 2.0 * index,
            "foi_target_points": self.foi_target_points,
            "lloyd_grid_target": self.grid_target,
            "resolution": self.resolution,
        }


def expected_mission_bytes(config: CrashRecConfig) -> bytes:
    """The oracle: canonical bytes of an *uninterrupted* mission run."""
    from repro.missions import run_mission

    document = run_mission(config.mission_spec(), config.mission_config())
    return dumps_canonical(document)


def boot_server(
    journal_dir: str | None, config: CrashRecConfig
) -> subprocess.Popen:
    """Start ``repro serve`` on an ephemeral port and wait for its banner.

    ``config`` supplies the shard and dispatcher counts; with a
    ``journal_dir`` the server runs on that write-ahead journal
    (``--journal-dir``), without one it keeps no journal.  Returns the
    process with ``.port`` (the bound ephemeral port) and
    ``.recovery_banner`` (the journal replay line, ``""`` on a cold or
    absent journal directory) attached.  Stop it with
    :func:`graceful_shutdown`.
    """
    journal = ["--journal-dir", journal_dir] if journal_dir else []
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", str(config.dispatchers),
            "--service-workers", str(config.service_workers),
            *journal,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    recovery_banner = ""
    deadline = time.monotonic() + 60.0
    while True:
        if time.monotonic() > deadline:
            proc.kill()
            raise ServiceError("server did not announce its port in 60s")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise ServiceError(
                f"server exited {proc.returncode} before binding"
            )
        line = line.strip()
        if line.startswith("journal at "):
            recovery_banner = line
            continue
        if line.startswith(_BANNER):
            proc.port = int(line.rsplit(":", 1)[1])
            proc.recovery_banner = recovery_banner
            return proc


def _stream_until_kill(
    client: ServiceClient, proc: subprocess.Popen, job_id: str, config: CrashRecConfig
) -> list[dict[str, Any]]:
    """Follow the mission SSE stream; SIGKILL at the seeded instant.

    Returns the events seen before the connection died.  The kill fires
    the moment the ``kill_epoch``-th ``epoch`` event arrives - durable
    checkpoint territory by the commit-order contract.
    """
    seen: list[dict[str, Any]] = []
    epochs_streamed = 0
    try:
        for event in client.iter_events(job_id, timeout=config.timeout_s):
            seen.append(event)
            if event.get("kind") == "epoch":
                epochs_streamed += 1
                if epochs_streamed >= config.kill_epoch:
                    proc.kill()  # SIGKILL: no handlers, no flushes
                    break
    except ServiceError:
        pass  # the socket died with the server; expected
    return seen


def graceful_shutdown(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGINT a :func:`boot_server` process; returns its exit code.

    Raises :class:`~repro.errors.ServiceError` (after a SIGKILL) when
    the server has not exited within ``timeout`` seconds.
    """
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ServiceError("server did not shut down on SIGINT")
    return proc.returncode


def run_crashrec(
    config: CrashRecConfig,
    journal_dir: str,
    sig: str = "SIGKILL",
    baseline: bytes | None = None,
) -> dict[str, Any]:
    """One crash-recovery cycle; returns the summary document.

    ``sig="SIGKILL"``: boot, load (plans + mission), kill -9 at the
    seeded epoch, restart on the same journal, assert-and-report.
    ``sig="SIGTERM"``: graceful-drain flavour - the mission checkpoints
    and releases at its epoch boundary and the process exits 0 before
    the restart finishes the job.

    ``journal_dir`` must be fresh (or hold only this harness's state);
    ``baseline`` lets callers amortise the in-process oracle run across
    cases with identical mission parameters.
    """
    if sig not in ("SIGKILL", "SIGTERM"):
        raise ServiceError(f"unsupported crash signal {sig!r}")
    if baseline is None:
        baseline = expected_mission_bytes(config)

    # Phase 1: boot and load.
    proc = boot_server(journal_dir, config)
    client = ServiceClient(port=proc.port, timeout=config.timeout_s)
    acked: dict[str, bytes] = {}
    for index in range(config.plan_jobs):
        admitted = client.submit_request(config.plan_request(index))
        job_id = admitted["job_id"]
        client.wait(job_id, timeout=config.timeout_s)
        acked[job_id] = client.result_bytes(job_id)
    mission = client.submit_mission(
        config.mission_spec(), config.mission_config()
    )
    mission_id = mission["job_id"]

    # Phase 2: the seeded crash.
    exit_code: int | None = None
    drain_seen = False
    interrupted_seen = False
    if sig == "SIGKILL":
        pre_kill_events = _stream_until_kill(client, proc, mission_id, config)
        proc.wait(timeout=30.0)
        exit_code = proc.returncode
    else:
        pre_kill_events = []
        for event in client.iter_events(mission_id, timeout=config.timeout_s):
            pre_kill_events.append(event)
            if event.get("kind") == "epoch" and exit_code is None:
                proc.send_signal(signal.SIGTERM)
                exit_code = -1  # marker: signal sent, waiting for exit
            if event.get("kind") == "draining":
                drain_seen = True
            if event.get("kind") == "interrupted":
                interrupted_seen = True
            if event.get("kind") == "end":
                break
        proc.wait(timeout=config.timeout_s)
        exit_code = proc.returncode
    epochs_before = sum(
        1 for e in pre_kill_events if e.get("kind") == "epoch"
    )

    # Phase 3: restart on the same journal and let recovery finish.
    t_restart = time.monotonic()
    proc2 = boot_server(journal_dir, config)
    restart_banner_s = time.monotonic() - t_restart
    client2 = ServiceClient(port=proc2.port, timeout=config.timeout_s)
    recovery = (client2.healthz().get("recovery") or {})
    resumed_events = list(
        client2.iter_events(mission_id, timeout=config.timeout_s)
    )
    client2.wait(mission_id, timeout=config.timeout_s)
    mission_bytes = client2.result_bytes(mission_id)
    mission_status = client2.status(mission_id)

    # Phase 4: the promises.
    lost_acked = []
    for job_id, payload in acked.items():
        status = client2.status(job_id)
        survived = (
            status.get("state") == "done"
            and client2.result_bytes(job_id) == payload
        )
        if not survived:
            lost_acked.append(job_id)
    resumed_from = next(
        (
            int(e.get("epoch", 0))
            for e in resumed_events
            if e.get("kind") == "resumed"
        ),
        None,
    )
    final_exit = graceful_shutdown(proc2)

    summary = {
        "format_version": 1,
        "config": config.to_dict(),
        "signal": sig,
        "canonical": {
            "zero_lost_acked": not lost_acked,
            "lost_acked": sorted(lost_acked),
            "acked_jobs": len(acked),
            "mission_byte_identical": mission_bytes == baseline,
            "mission_digest": canonical_digest(json.loads(mission_bytes)),
            "mission_provenance": mission_status.get("provenance"),
            "epochs_streamed_before_crash": epochs_before,
            "resumed_from_epoch": resumed_from,
        },
        "timing": {
            "crash_exit_code": exit_code,
            "restart_exit_code": final_exit,
            "restart_banner_s": round(restart_banner_s, 3),
            "recovery": recovery,
            "drain_announced": drain_seen,
            "interrupted_event": interrupted_seen,
        },
    }
    return summary


def _checks(summary: dict[str, Any]) -> list[tuple[str, bool]]:
    """The case's named pass/fail checks (rendered, and ANDed for the verdict)."""
    canonical = summary["canonical"]
    timing = summary["timing"]
    checks = [
        ("zero lost acknowledged jobs", canonical["zero_lost_acked"]),
        ("mission document byte-identical", canonical["mission_byte_identical"]),
        ("clean final shutdown", timing["restart_exit_code"] == 0),
    ]
    if summary["signal"] == "SIGTERM":
        checks.extend([
            ("graceful exit 0 on SIGTERM", timing["crash_exit_code"] == 0),
            ("drain announced on SSE", timing["drain_announced"]),
            ("mission checkpoint-released", timing["interrupted_event"]),
        ])
    return checks


def render_crashrec(summary: dict[str, Any]) -> str:
    """Human-readable one-case report (the smoke runner's output)."""
    canonical = summary["canonical"]
    recovery = summary["timing"].get("recovery") or {}
    lines = [
        f"crashrec [{summary['signal']}] seed={summary['config']['seed']} "
        f"kill_epoch={summary['config']['kill_epoch']}: "
        f"{canonical['acked_jobs']} acked jobs, "
        f"{canonical['epochs_streamed_before_crash']} epochs streamed "
        f"before the crash, resumed from "
        f"{canonical['resumed_from_epoch']}, provenance "
        f"{canonical['mission_provenance']}",
        f"  journal replay: {recovery.get('journal_records', '?')} records "
        f"in {recovery.get('replay_s', 0.0):.3f}s "
        f"({recovery.get('jobs_restored', 0)} restored, "
        f"{recovery.get('jobs_retried', 0)} retried)",
    ]
    lines.extend(
        f"  [{'ok' if ok else 'FAIL'}] {name}" for name, ok in _checks(summary)
    )
    return "\n".join(lines)


def crashrec_passed(summary: dict[str, Any]) -> bool:
    """The case's overall verdict: every check holds."""
    return all(ok for _, ok in _checks(summary))
