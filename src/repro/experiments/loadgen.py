"""Deterministic open-loop load generator for the planning service.

The ROADMAP's "heavy traffic" claim is only worth something if it can
be falsified: this module replays a *seeded* population of concurrent
clients against a running :class:`~repro.service.server.PlanningService`
(or the ``repro serve`` process) and reports, in one canonical
document, whether the service kept its promises under fire:

* **zero 5xx** - overload must answer ``429 Retry-After``, never an
  internal error;
* **Retry-After correctness** - every 429 carries a positive,
  numeric drain estimate;
* **dedup exactness** - the schedule contains a known number of
  unique content addresses, so the service must report *exactly*
  ``clients - uniques`` deduplicated admissions and solve each unique
  once, no matter how the clients raced;
* **result byte-identity** - every client that asked for the same
  request must download byte-identical plan documents.

The schedule is a pure function of :class:`LoadgenConfig`: unique
requests are drawn per zoo family with per-index seeded RNGs, arrival
times follow seeded exponential inter-arrivals, and duplicate slots
are assigned by a seeded shuffle - so two runs (or two services with
different dispatcher counts) replay byte-for-byte the same traffic.
The summary separates a **canonical** section (schedule-derived counts
and correctness booleans; byte-identical across runs and worker
counts via :func:`summary_bytes`) from a **timing** section
(p50/p95/p99 per endpoint, 429/retry counts)
that is honest about being nondeterministic.

Socket concurrency is bounded by ``max_inflight`` worker threads so a
thousands-strong client population does not blow through the process
fd limit; arrival times stay open-loop (a saturated pool just means
late arrivals, which the timing section reports as scheduling lag).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.errors import ServiceError
from repro.experiments.zoo.families import FAMILIES
from repro.io import canonical_digest, dumps_canonical
from repro.service import QueueFull, ServiceClient
from repro.service.jobs import job_id_for, normalize_plan_request

__all__ = [
    "LoadgenConfig",
    "build_schedule",
    "loadgen_passed",
    "render_loadgen",
    "run_loadgen",
    "run_loadgen_fleet",
    "summary_bytes",
]

#: per-family separation-factor band the unique requests draw from -
#: the request *mix* mirrors the zoo's archetype diversity without
#: leaving the registered scenario set the service accepts.
_FAMILY_SEPARATION = {
    "corridor": (8.0, 16.0),
    "archipelago": (16.0, 28.0),
    "annulus": (10.0, 20.0),
    "star": (12.0, 24.0),
    "rough": (6.0, 14.0),
}


@dataclass(frozen=True)
class LoadgenConfig:
    """Everything that determines the replayed traffic, and only that.

    The service's dispatcher count is deliberately *not* here: the same
    config must produce the same canonical summary against any service.
    """

    clients: int = 200
    duplicate_fraction: float = 0.5
    arrival_rate_hz: float = 200.0
    seed: int = 0
    families: tuple[str, ...] = tuple(FAMILIES)
    #: resolution knobs forwarded into every request (kept small so a
    #: smoke run solves in seconds; raise for soak runs).
    foi_target_points: int = 200
    lloyd_grid_target: int = 600
    resolution: int = 12
    #: every ``stream_every``-th client follows its job over the SSE
    #: events endpoint instead of polling (0 disables streaming).
    stream_every: int = 0
    #: client-side behaviour (not part of the canonical schedule).
    retries: int = 8
    timeout_s: float = 300.0
    max_inflight: int = 256

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServiceError("loadgen needs at least one client")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ServiceError("duplicate_fraction must be in [0, 1)")
        if self.arrival_rate_hz <= 0:
            raise ServiceError("arrival_rate_hz must be positive")
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown or not self.families:
            raise ServiceError(
                f"unknown zoo families {unknown}; valid: {list(FAMILIES)}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "duplicate_fraction": self.duplicate_fraction,
            "arrival_rate_hz": self.arrival_rate_hz,
            "seed": self.seed,
            "families": list(self.families),
            "foi_target_points": self.foi_target_points,
            "lloyd_grid_target": self.lloyd_grid_target,
            "resolution": self.resolution,
            "stream_every": self.stream_every,
        }


def _draw_request(config: LoadgenConfig, family: str, index: int) -> dict[str, Any]:
    """One unique request, a pure function of (seed, family, index)."""
    rng = random.Random(f"loadgen:{config.seed}:{family}:{index}")
    lo, hi = _FAMILY_SEPARATION[family]
    # Quantised separation keeps the canonical dict float-stable.
    separation = round(rng.uniform(lo, hi), 2)
    scenario_id = rng.randint(1, 7)
    doc = {
        "scenario_ids": [scenario_id],
        "separation_factor": separation,
        "methods": ["ours (a)"] if rng.random() < 0.5 else ["ours (a)", "Hungarian"],
        "foi_target_points": config.foi_target_points,
        "lloyd_grid_target": config.lloyd_grid_target,
        "resolution": config.resolution,
    }
    request, _priority = normalize_plan_request(doc)
    return request


def build_schedule(config: LoadgenConfig) -> list[dict[str, Any]]:
    """The full deterministic traffic plan, one entry per client.

    Entries carry ``t`` (arrival offset in seconds), the normalised
    ``request``, its ``job_id`` content address, the ``family`` it was
    drawn from and a ``stream`` flag.  The unique pool has exactly
    ``max(1, round(clients * (1 - duplicate_fraction)))`` members and
    every member appears at least once, so the expected dedup count is
    exact, not statistical.
    """
    uniques = max(1, round(config.clients * (1.0 - config.duplicate_fraction)))
    uniques = min(uniques, config.clients)
    pool = []
    seen: set[str] = set()
    index = 0
    while len(pool) < uniques:
        family = config.families[index % len(config.families)]
        request = _draw_request(config, family, index)
        job_id = job_id_for(request)
        index += 1
        if job_id in seen:  # two draws collided on a content address
            continue
        seen.add(job_id)
        pool.append({"request": request, "job_id": job_id, "family": family})
    rng = random.Random(f"loadgen:{config.seed}:schedule")
    # Every unique once, then seeded duplicate draws, then one shuffle:
    # the arrival order is scrambled but the multiset is exact.
    slots = list(range(uniques))
    slots.extend(
        rng.randrange(uniques) for _ in range(config.clients - uniques)
    )
    rng.shuffle(slots)
    schedule = []
    t = 0.0
    for client_index, slot in enumerate(slots):
        t += rng.expovariate(config.arrival_rate_hz)
        schedule.append({
            "client": client_index,
            "t": t,
            "stream": (
                config.stream_every > 0
                and client_index % config.stream_every == 0
            ),
            **pool[slot],
        })
    return schedule


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


def _latency_stats(samples: list[float]) -> dict[str, Any]:
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50) * 1000.0, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1000.0, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1000.0, 3),
        "max_ms": round((ordered[-1] if ordered else 0.0) * 1000.0, 3),
    }


@dataclass
class _ClientOutcome:
    """What one replayed client observed (accumulated into the summary)."""

    client: int
    job_id: str
    created: bool = False
    deduplicated: bool = False
    completed: bool = False
    rejected_429: int = 0
    retry_after_ok: bool = True
    server_5xx: int = 0
    submit_latency_s: float = 0.0
    result_latency_s: float = 0.0
    total_latency_s: float = 0.0
    schedule_lag_s: float = 0.0
    streamed_events: int = 0
    result_digest: str = ""
    error: str | None = None
    events: list = field(default_factory=list)


def _run_client(
    entry: dict[str, Any],
    config: LoadgenConfig,
    host: str,
    port: int,
    t0: float,
) -> _ClientOutcome:
    """One client's whole conversation: admit (retrying 429), wait, fetch."""
    out = _ClientOutcome(client=entry["client"], job_id=entry["job_id"])
    delay = t0 + entry["t"] - time.monotonic()
    if delay > 0:
        time.sleep(delay)
    out.schedule_lag_s = max(0.0, -delay)
    jitter = random.Random(f"loadgen-client:{config.seed}:{entry['client']}")
    submit_client = ServiceClient(host, port, timeout=config.timeout_s)
    poll_client = ServiceClient(
        host,
        port,
        timeout=config.timeout_s,
        retries=config.retries,
        retry_seed=config.seed * 100_003 + entry["client"],
    )
    deadline = time.monotonic() + config.timeout_s
    started = time.monotonic()
    try:
        while True:  # admission loop: 429 is an answer, not a failure
            try:
                attempt_t0 = time.monotonic()
                admitted = submit_client.submit_request(entry["request"])
                out.submit_latency_s = time.monotonic() - attempt_t0
                break
            except QueueFull as exc:
                out.rejected_429 += 1
                retry_after = exc.retry_after_s
                if retry_after is None or retry_after < 1.0:
                    out.retry_after_ok = False
                    retry_after = 0.05
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        "admission still refused at deadline"
                    ) from exc
                # Honour the server's estimate, capped and jittered so
                # the rejected cohort does not stampede back in sync.
                time.sleep(
                    min(retry_after, 2.0) * (0.5 + 0.5 * jitter.random())
                )
        if admitted["job_id"] != entry["job_id"]:
            raise ServiceError(
                f"server admitted {admitted['job_id']}, schedule expected "
                f"{entry['job_id']} (content addressing diverged)"
            )
        out.created = not admitted.get("deduplicated", False)
        out.deduplicated = bool(admitted.get("deduplicated", False))
        remaining = max(1.0, deadline - time.monotonic())
        if entry["stream"]:
            for event in poll_client.iter_events(entry["job_id"]):
                out.streamed_events += 1
                out.events.append(event.get("kind"))
        else:
            poll_client.wait(entry["job_id"], timeout=remaining)
        fetch_t0 = time.monotonic()
        payload = poll_client.result_bytes(entry["job_id"])
        out.result_latency_s = time.monotonic() - fetch_t0
        out.result_digest = hashlib.sha256(payload).hexdigest()
        out.completed = True
    except ServiceError as exc:
        status = getattr(exc, "status", None)
        if isinstance(status, int) and status >= 500:
            out.server_5xx += 1
        out.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - a client crash is a finding
        out.error = f"{type(exc).__name__}: {exc}"
    out.total_latency_s = time.monotonic() - started
    return out


def run_loadgen(
    config: LoadgenConfig,
    port: int,
    host: str = "127.0.0.1",
) -> dict[str, Any]:
    """Replay the seeded schedule against a running service.

    Returns the summary document described in the module docstring.
    The target should be *fresh* (no jobs from a previous run) for the
    canonical section's dedup counts to be schedule-exact; replays
    against a warm server still complete but report the extra
    deduplication they observed.
    """
    schedule = build_schedule(config)
    uniques = len({entry["job_id"] for entry in schedule})
    workers = min(config.max_inflight, config.clients)
    t0 = time.monotonic()
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="loadgen"
    ) as pool:
        outcomes = list(
            pool.map(
                lambda entry: _run_client(entry, config, host, port, t0),
                schedule,
            )
        )
    elapsed = time.monotonic() - t0

    completed = [o for o in outcomes if o.completed]
    dedup_hits = sum(1 for o in outcomes if o.deduplicated)
    created = sum(1 for o in outcomes if o.created)
    server_5xx = sum(o.server_5xx for o in outcomes)
    rejected_429 = sum(o.rejected_429 for o in outcomes)
    # Byte-identity: every client of a given job saw one digest, and
    # clients of the *same* job saw the *same* digest.
    digests: dict[str, set[str]] = {}
    for o in completed:
        digests.setdefault(o.job_id, set()).add(o.result_digest)
    results_identical = all(len(seen) == 1 for seen in digests.values())

    per_endpoint = {
        "plan": _latency_stats([o.submit_latency_s for o in completed]),
        "result": _latency_stats([o.result_latency_s for o in completed]),
        "job": _latency_stats([o.total_latency_s for o in completed]),
    }
    summary = {
        "format_version": 1,
        "config": config.to_dict(),
        "canonical": {
            "clients": config.clients,
            "uniques": uniques,
            "duplicates": config.clients - uniques,
            "dedup_hits": dedup_hits,
            "jobs_created": created,
            "dedup_exact": (
                dedup_hits == config.clients - uniques and created == uniques
            ),
            "all_clients_completed": len(completed) == config.clients,
            "zero_5xx": server_5xx == 0,
            "retry_after_correct": all(o.retry_after_ok for o in outcomes),
            "results_byte_identical": results_identical,
            "request_pool": sorted({e["job_id"] for e in schedule}),
        },
        "timing": {
            "elapsed_s": round(elapsed, 3),
            "throughput_rps": round(config.clients / max(elapsed, 1e-9), 2),
            "rejected_429": rejected_429,
            "server_5xx": server_5xx,
            "streamed_events": sum(o.streamed_events for o in outcomes),
            "max_schedule_lag_s": round(
                max((o.schedule_lag_s for o in outcomes), default=0.0), 3
            ),
            "endpoints": per_endpoint,
            "errors": sorted(
                {o.error for o in outcomes if o.error is not None}
            )[:10],
        },
    }
    return summary


def run_loadgen_fleet(
    config: LoadgenConfig,
    dispatchers: int = 4,
    capacity: int = 64,
    runner: Any = None,
    drain_probe: bool = True,
    journal: bool = True,
) -> dict[str, Any]:
    """Boot a fresh in-process service, load it, drain it, report.

    The self-contained flavour used by ``python -m repro loadgen``
    (without ``--port``), tests and the CI smoke: guarantees the target
    is cold, and appends a ``drain`` section verifying that shutdown
    mid-traffic is graceful (healthz flips to 503, every accepted job
    still completes, the service stops cleanly).

    With ``journal`` (the default) the service runs on a temporary job
    journal and, after the drained shutdown, a second service is booted
    on the same journal directory - the summary's ``recovery`` section
    reports how many jobs the restart restored and how long the replay
    took.  Per-append fsync is off here (this measures replay, not
    ``kill -9`` durability - the crashrec harness covers that).
    """
    import contextlib
    import tempfile

    from repro.service import PlanningService

    journal_cm: Any = (
        tempfile.TemporaryDirectory(prefix="repro-loadgen-journal-")
        if journal
        else contextlib.nullcontext()
    )
    with journal_cm as journal_dir:
        service = PlanningService(
            port=0,
            capacity=capacity,
            dispatchers=dispatchers,
            runner=runner,
            journal_dir=journal_dir,
            journal_fsync=False,
        )
        with service:
            summary = run_loadgen(config, port=service.port)
            drain: dict[str, Any] = {}
            if drain_probe:
                probe = ServiceClient(port=service.port)
                service.drain()
                health = probe.healthz()
                drain = {
                    "draining_healthz_status": health.get("http_status"),
                    "draining_announced": health.get("status") == "draining",
                    "rejects_new_work": False,
                }
                try:
                    probe.submit_request(build_schedule(config)[0]["request"])
                except ServiceError as exc:
                    drain["rejects_new_work"] = (
                        getattr(exc, "status", None) == 503
                    )
        recovery: dict[str, Any] = {}
        if journal:
            restarted = PlanningService(
                port=0,
                capacity=capacity,
                dispatchers=dispatchers,
                runner=runner,
                journal_dir=journal_dir,
                journal_fsync=False,
            )
            with restarted:
                recovery = dict(restarted.recovery)
    summary["drain"] = drain
    summary["recovery"] = recovery
    return summary


def summary_bytes(summary: dict[str, Any]) -> bytes:
    """Canonical bytes of the *deterministic* part of a summary.

    Only ``format_version``, ``config`` and ``canonical`` participate:
    those are byte-identical across repeated runs and across services
    with different dispatcher counts; timing and drain sections are
    measurements and stay out.
    """
    return dumps_canonical({
        "format_version": summary["format_version"],
        "config": summary["config"],
        "canonical": summary["canonical"],
    })


def _checks(summary: dict[str, Any]) -> list[tuple[str, bool]]:
    """The run's named pass/fail checks (rendered, and ANDed for the verdict)."""
    canonical = summary["canonical"]
    checks = [
        ("all clients completed", canonical["all_clients_completed"]),
        ("zero 5xx", canonical["zero_5xx"]),
        ("429 Retry-After correct", canonical["retry_after_correct"]),
        ("dedup exact", canonical["dedup_exact"]),
        ("results byte-identical", canonical["results_byte_identical"]),
    ]
    drain = summary.get("drain") or {}
    if drain:
        checks.append((
            "drain graceful",
            bool(
                drain.get("draining_announced")
                and drain.get("rejects_new_work")
            ),
        ))
    recovery = summary.get("recovery") or {}
    if recovery:
        # A drained service's journal restores every unique job terminal
        # - a requeue here means a completed job's durability was lost.
        checks.append((
            "restart recovery clean",
            recovery.get("jobs_requeued", 0) == 0
            and recovery.get("jobs_restored", 0) >= canonical["uniques"],
        ))
    return checks


def render_loadgen(summary: dict[str, Any]) -> str:
    """Human-readable report of one load run (the CLI's output)."""
    from repro.experiments.tables import format_table

    canonical = summary["canonical"]
    timing = summary["timing"]
    rows = [
        [
            endpoint,
            stats["count"],
            f"{stats['p50_ms']:.1f}",
            f"{stats['p95_ms']:.1f}",
            f"{stats['p99_ms']:.1f}",
            f"{stats['max_ms']:.1f}",
        ]
        for endpoint, stats in timing["endpoints"].items()
    ]
    table = format_table(
        ["endpoint", "n", "p50 ms", "p95 ms", "p99 ms", "max ms"], rows
    )
    check_lines = "\n".join(
        f"  [{'ok' if ok else 'FAIL'}] {name}" for name, ok in _checks(summary)
    )
    header = (
        f"loadgen: {canonical['clients']} clients "
        f"({canonical['uniques']} unique, "
        f"{canonical['dedup_hits']} dedup hits, "
        f"{timing['rejected_429']} x 429) in {timing['elapsed_s']:.2f}s "
        f"({timing['throughput_rps']:.1f} req/s)"
    )
    recovery = summary.get("recovery") or {}
    if recovery:
        header += (
            f"\nrestart: {recovery.get('jobs_restored', 0)} jobs restored "
            f"({recovery.get('jobs_requeued', 0)} requeued, "
            f"{recovery.get('jobs_retried', 0)} retried) from "
            f"{recovery.get('journal_records', 0)} journal records in "
            f"{recovery.get('replay_s', 0.0):.3f}s"
        )
    digest = canonical_digest({
        "format_version": summary["format_version"],
        "config": summary["config"],
        "canonical": canonical,
    })
    return f"{header}\n{table}\n{check_lines}\ncanonical digest {digest}"


def loadgen_passed(summary: dict[str, Any]) -> bool:
    """The run's overall verdict (the CLI's exit code): every check holds."""
    return all(ok for _, ok in _checks(summary))
