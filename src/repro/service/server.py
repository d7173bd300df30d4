"""Asyncio HTTP/1.1 planning service (stdlib only).

:class:`PlanningService` exposes the experiment harness as a
long-running, concurrent endpoint: swarm operators ``POST`` an
M1->M2 transition request, poll the job, and fetch the plan document -
while the service deduplicates identical requests, shares one content
cache across jobs, applies backpressure when the queue fills, and
publishes its own health, metrics and trace state.

Endpoints
---------
``POST /v1/plan`` / ``POST /v1/mission``
    Submit a plan or mission request (see
    :func:`~repro.service.jobs.normalize_plan_request` and
    :func:`~repro.service.jobs.normalize_mission_request` for the body
    schemas).  ``202`` with ``{"job_id", "state", "deduplicated",
    "shard"}``; ``429`` + ``Retry-After`` when the owning shard's
    queue is full (the estimate comes from the observed
    ``service.job_duration_s`` histogram); ``503`` while draining.
``GET /v1/jobs`` / ``GET /v1/jobs/{id}``
    Job listing (all shards merged) / one job's status document.
``GET /v1/jobs/{id}/result``
    ``200`` with the canonical-JSON plan document once ``done``;
    ``202`` while queued/running, ``404`` unknown, ``410`` cancelled
    (``state: cancelled``) or TTL-expired (``state: expired`` with the
    eviction time), ``500`` with the failure reason when ``failed``.
``GET /v1/jobs/{id}/events`` (alias ``GET /v1/plan/{id}/events``)
    Server-sent-events stream of the job's progress: ``queued``,
    ``claimed`` (with the measured queue wait and owning shard),
    ``phase`` timings for solve/serialize, a mission's live ``epoch``,
    ``plan_diff`` and ``recovery`` events, the terminal state, and a
    final ``end`` frame.  Poll-free alternative to
    ``GET /v1/jobs/{id}``; the stream replays from the beginning, so
    attaching to a finished job yields its full history at once.
``POST /v1/jobs/{id}/cancel``
    Cancel a queued job (``409`` once running or terminal).
``GET /healthz``
    ``200 {"status": "ok", ...}`` in normal operation, ``503``
    ``{"status": "draining"}`` during shutdown; includes per-shard
    queue depths and the live event-stream count.
``GET /metrics``
    Snapshot of the service's :class:`repro.obs.Metrics` registry,
    including per-shard ``service.shard.{i}.queue.depth`` gauges and
    ``service.shard.{i}.claim_latency_s`` histograms.
``GET /tracez``
    The most recent spans of the service's tracer.

Architecture: the asyncio event loop runs in a dedicated thread and
only ever does bookkeeping (parse, admit, look up, serialise a status
doc, relay progress events) - solves happen on
:class:`~repro.service.executor_bridge.ExecutorBridge` dispatcher
threads, each job attempt on its own thread under the per-job timeout,
so a slow plan never blocks health checks or admissions.  With ``service_workers > 1`` the
queue itself is sharded: each shard worker owns a private
:class:`~repro.service.jobs.JobQueue` plus its own dispatcher pool,
and submissions are routed by consistent hash of the content address
(:class:`~repro.service.sharding.ShardRouter`), so identical requests
still collapse onto one job on one shard while distinct requests
spread across the fleet.  All shards share one content cache (and,
when configured, the same atomic sharded
:class:`~repro.exec.DiskStore`), so a solve on any shard warms every
other.  The HTTP layer is a hand-rolled HTTP/1.1 subset (one request
per connection, ``Connection: close``): no new dependencies, and the
stdlib ``http.client`` in :mod:`repro.service.client` speaks it
happily.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import math
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import MissionInterrupted, ServiceError
from repro.exec import ContentCache, activate_cache
from repro.io import FORMAT_VERSION, dumps_canonical, plan_document
from repro.obs import Metrics, Tracer, activate, activate_metrics, span

from repro.service.jobs import (
    Job,
    JobQueue,
    QueueClosed,
    QueueFull,
    job_id_for,
    normalize_mission_request,
    normalize_plan_request,
)
from repro.service.executor_bridge import ExecutorBridge
from repro.service.journal import JobJournal, JournalReplay
from repro.service.sharding import ShardRouter

__all__ = [
    "PlanningService",
    "ShardWorker",
    "default_runner",
    "run_mission_request",
    "run_plan_request",
]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_BODY_BYTES = 1_000_000
#: submission path -> (endpoint label, request normaliser)
_SUBMISSIONS = {
    "/v1/plan": ("plan", normalize_plan_request),
    "/v1/mission": ("mission", normalize_mission_request),
}
_HEADER_TIMEOUT_S = 10.0


def run_plan_request(request: dict[str, Any], cache: ContentCache | None = None):
    """Default job body: the experiment harness, under the service cache.

    Runs :func:`repro.experiments.run_scenarios` for the normalised
    request and returns the versioned plan document.  Executed on a job
    attempt thread in the dispatcher's context, which carries the
    server's tracer and metrics but no cache, so the service's content
    cache is bound in explicitly - this is what lets deduplicated and
    back-to-back jobs share disk-map entries.
    """
    from repro.experiments import get_scenario, run_scenarios

    cm = activate_cache(cache) if cache is not None else contextlib.nullcontext()
    with cm:
        runs = run_scenarios(
            [get_scenario(sid) for sid in request["scenario_ids"]],
            separation_factor=request["separation_factor"],
            methods=tuple(request["methods"]),
            workers=1,
            foi_target_points=request["foi_target_points"],
            lloyd_grid_target=request["lloyd_grid_target"],
            resolution=request["resolution"],
        )
    return plan_document(runs)


def run_mission_request(
    request: dict[str, Any],
    progress: Any = None,
    checkpoint_dir: str | None = None,
    interrupt: Callable[[], bool] | None = None,
) -> dict[str, Any]:
    """Mission job body: run the mission executor for a normalised request.

    The mission runner scopes a *private* cache and metrics registry
    internally (its document must be byte-identical across worker
    counts and shards), so unlike :func:`run_plan_request` the service
    cache is deliberately not bound in.  ``progress`` is the
    ``(kind, data)`` callback the executor bridge wires to the job's
    SSE event log; ``checkpoint_dir`` enables durable per-epoch
    checkpoints (and resume-from-checkpoint after a crash); a fired
    ``interrupt`` is reported as a ``mission_interrupted`` sentinel
    document so the bridge can release the job instead of failing it.
    """
    from repro.faults import schedule_from_dict
    from repro.missions import run_mission

    faults_doc = request.get("faults")
    faults = None if faults_doc is None else schedule_from_dict(faults_doc)
    try:
        return run_mission(
            request["spec"],
            request["config"],
            faults=faults,
            progress=progress,
            checkpoint_dir=checkpoint_dir,
            interrupt=interrupt,
        )
    except MissionInterrupted as exc:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "mission_interrupted",
            "epochs_completed": exc.epochs_completed,
        }


def default_runner(
    cache: ContentCache, checkpoint_root: str | Path | None = None
) -> Callable[..., Any]:
    """The service's job body: dispatch on the request's ``kind``.

    Plan batches run under the shared service cache; missions run the
    streaming mission executor, checkpointing per epoch under
    ``checkpoint_root/<job_id>`` when a root is given (the service
    passes ``<journal_dir>/missions``).  The returned callable
    advertises ``supports_progress`` and ``supports_interrupt`` so the
    executor bridge knows it may pass ``progress`` and ``interrupt``
    callbacks.
    """

    def run(
        request: dict[str, Any],
        progress: Any = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> Any:
        if isinstance(request, dict) and request.get("kind") == "mission":
            checkpoint_dir = None
            if checkpoint_root is not None:
                checkpoint_dir = str(Path(checkpoint_root) / job_id_for(request))
            return run_mission_request(
                request,
                progress=progress,
                checkpoint_dir=checkpoint_dir,
                interrupt=interrupt,
            )
        return run_plan_request(request, cache=cache)

    run.supports_progress = True
    # Interrupting is only safe when missions checkpoint durably: a
    # parked job with no checkpoint (and no journal to restore it)
    # would simply be lost work.  Without a journal, drains let
    # missions run to completion as before.
    run.supports_interrupt = checkpoint_root is not None
    return run


class ShardWorker:
    """One fleet shard: a private job queue plus its dispatcher pool."""

    __slots__ = ("index", "queue", "bridge")

    def __init__(self, index: int, queue: JobQueue, bridge: ExecutorBridge) -> None:
        self.index = index
        self.queue = queue
        self.bridge = bridge


class PlanningService:
    """Planning-as-a-service: HTTP frontend + sharded job store + bridges.

    Parameters
    ----------
    host, port : str, int
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    capacity : int
        Total queued-job bound, split evenly across the shards;
        admissions beyond a shard's share get ``429``.
    dispatchers : int
        Concurrent jobs in flight *per shard* (executor-bridge threads).
    service_workers : int
        Number of shard workers.  1 (the default) reproduces the PR-3
        single-queue service exactly; N > 1 shards the queue by
        consistent hash of the content address while every shard shares
        the one content cache / disk store.
    job_timeout_s, retries
        Per-attempt timeout and extra attempts of every job (see
        :class:`ExecutorBridge`).
    ttl_s : float
        Retention of finished jobs and their results.
    runner : callable, optional
        Override the job body (tests inject fast/failing runners);
        defaults to :func:`run_plan_request` bound to the service cache.
    journal_dir : str or Path, optional
        Directory for the write-ahead job journal.  When set, every
        job state transition is journaled durably before it is
        acknowledged, mission jobs checkpoint per epoch under
        ``journal_dir/missions``, and :meth:`start` replays the
        journal to recover jobs from a previous (possibly killed)
        process.  Without it the service is purely in-memory (the
        pre-journal behaviour).
    journal_fsync : bool
        Fsync every journal append (default).  Tests disable it for
        speed; production keeps it on - it is the durability claim.
    tracer, metrics, cache
        Observability and cache objects; fresh ones are created when
        omitted.  Pass the ambient tracer to stream spans to a
        ``--trace`` sink.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 64,
        dispatchers: int = 2,
        service_workers: int = 1,
        job_timeout_s: float | None = None,
        retries: int = 1,
        ttl_s: float = 3600.0,
        runner: Callable[[dict[str, Any]], Any] | None = None,
        journal_dir: str | Path | None = None,
        journal_fsync: bool = True,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
        cache: ContentCache | None = None,
        tracez_limit: int = 256,
    ) -> None:
        if service_workers < 1:
            raise ServiceError("service_workers must be positive")
        self.host = host
        self.port = port
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = cache if cache is not None else ContentCache()
        self.journal: JobJournal | None = None
        checkpoint_root: Path | None = None
        if journal_dir is not None:
            self.journal = JobJournal(journal_dir, fsync=journal_fsync)
            checkpoint_root = Path(journal_dir) / "missions"
        #: recovery stats of the last :meth:`start` (empty dict until a
        #: journal-backed start has replayed; all-zero counts on a cold
        #: journal).
        self.recovery: dict[str, Any] = {}
        if runner is not None:
            self.runner = runner
        else:
            self.runner = default_runner(self.cache, checkpoint_root=checkpoint_root)
        self._router = ShardRouter(service_workers)
        shard_capacity = max(1, capacity // service_workers)
        self.shards: list[ShardWorker] = []
        for index in range(service_workers):
            queue = JobQueue(
                capacity=shard_capacity, ttl_s=ttl_s, shard=index,
                journal=self.journal,
            )
            bridge = ExecutorBridge(
                queue,
                self.runner,
                dispatchers=dispatchers,
                job_timeout_s=job_timeout_s,
                retries=retries,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.shards.append(ShardWorker(index, queue, bridge))
        # Single-shard aliases: the PR-3 API (and its tests) address the
        # one queue/bridge directly; on a fleet they mean shard 0.
        self.queue = self.shards[0].queue
        self.bridge = self.shards[0].bridge
        self.tracez_limit = tracez_limit
        #: event-stream tuning (tests shrink these to force edge paths)
        self.events_poll_s = 0.05
        self.events_keepalive_s = 1.0
        self.events_drain_timeout_s = 10.0
        self._streams: set[asyncio.Task] = set()
        self._draining = False
        self._started_at: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._evict_task: asyncio.Task | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._boot_error: BaseException | None = None

    @property
    def service_workers(self) -> int:
        return len(self.shards)

    def _shard_for(self, job_id: str) -> ShardWorker:
        return self.shards[self._router.shard_for(job_id)]

    def _find_job(self, job_id: str) -> tuple[JobQueue, Job | None]:
        """The owning shard's queue and the job (None when unknown)."""
        queue = self._shard_for(job_id).queue
        return queue, queue.get(job_id)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "PlanningService":
        """Bind, boot the event-loop thread and every shard's dispatchers.

        With a journal, recovery runs first: the journal is replayed,
        every non-terminal job from the previous process is re-enqueued
        (at-least-once; content-address dedup makes re-execution
        idempotent), and the journal is compacted from the restored
        state - all *before* any dispatcher can claim work, so the
        recovered backlog is ordered ahead of new submissions.
        """
        if self._thread is not None:
            return self
        self._recover()
        for shard in self.shards:
            shard.bridge.start()
        self._thread = threading.Thread(
            target=self._loop_main, name="repro-service-http", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._boot_error is not None:
            for shard in self.shards:
                shard.bridge.stop(drain=False, timeout=5.0)
            if self.journal is not None:
                self.journal.close()
            raise ServiceError(
                f"service failed to start on {self.host}:{self.port}: "
                f"{self._boot_error!r}"
            )
        self._started_at = time.monotonic()
        return self

    def _recover(self) -> None:
        """Replay the journal and restore jobs into the shard queues."""
        if self.journal is None:
            return
        t0 = time.perf_counter()
        with activate_metrics(self.metrics):
            replay = self.journal.replay()
            stats = {
                "restored": 0, "requeued": 0, "retried": 0,
                "completed": 0, "failed": 0, "cancelled": 0,
            }
            if replay.jobs or replay.evicted:
                owners = self._router.partition(list(replay.jobs))
                evicted_owners = self._router.partition(list(replay.evicted))
                for shard in self.shards:
                    states = [
                        replay.jobs[job_id]
                        for job_id in owners.get(shard.index, [])
                    ]
                    evicted = {
                        job_id: replay.evicted[job_id]
                        for job_id in evicted_owners.get(shard.index, [])
                    }
                    shard_stats = shard.queue.restore(states, evicted)
                    for key, value in shard_stats.items():
                        stats[key] += value
            # Compact from the *restored* live state, not the raw
            # replay: restore appends provenance events ("retried") the
            # old log never saw, and the snapshot must keep event
            # sequences contiguous for ``?since=`` resume.
            states: list[dict[str, Any]] = []
            evicted_all: dict[str, float] = {}
            for shard in self.shards:
                shard_states, shard_evicted = shard.queue.snapshot_state()
                states.extend(shard_states)
                evicted_all.update(shard_evicted)
            self.journal.compact(
                JournalReplay(
                    jobs={state["job_id"]: state for state in states},
                    evicted=evicted_all,
                    records=replay.records,
                    torn=replay.torn,
                    segments=replay.segments,
                )
            )
            replay_s = time.perf_counter() - t0
            self.recovery = {
                "replay_s": replay_s,
                "journal_records": replay.records,
                "torn_records": replay.torn,
                "segments": replay.segments,
                "jobs_restored": stats["restored"],
                "jobs_requeued": stats["requeued"],
                "jobs_retried": stats["retried"],
                "jobs_completed": stats["completed"],
                "jobs_failed": stats["failed"],
                "jobs_cancelled": stats["cancelled"],
            }
            self.metrics.gauge("service.recovery.replay_s").set(replay_s)
            self.metrics.gauge("service.recovery.journal_records").set(
                replay.records
            )
            if replay.torn:
                self.metrics.counter("service.recovery.torn_records").inc(
                    replay.torn
                )

    def drain(self) -> None:
        """Stop accepting new plan submissions (existing jobs keep going).

        In-flight interrupt-aware jobs (missions) are asked to
        checkpoint-and-release at their next epoch boundary so a
        drain-then-stop never throws away completed epochs.
        """
        self._draining = True
        for shard in self.shards:
            shard.bridge.request_drain()

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: reject new work, drain, then close HTTP.

        With ``drain`` (the default) every queued and running job is
        finished before the dispatchers exit; without it the backlog is
        cancelled and only in-flight jobs complete.
        """
        if self._thread is None:
            if self.journal is not None:
                self.journal.close()
            return
        self.drain()
        for shard in self.shards:
            shard.bridge.stop(drain=drain, timeout=timeout)
        if self._loop is not None and not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown_async(), self._loop
            )
            with contextlib.suppress(Exception):
                future.result(timeout=10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
        if self.journal is not None:
            self.journal.close()
        self._stopped.set()

    def wait(self) -> None:
        """Block until :meth:`stop` is called (the CLI's serve loop).

        Polls so SIGINT interrupts the wait on every platform.
        """
        while not self._stopped.wait(timeout=1.0):
            pass

    def __enter__(self) -> "PlanningService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- event-loop thread ---------------------------------------------

    def _loop_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._boot())
        except BaseException as exc:
            self._boot_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            with contextlib.suppress(Exception):
                loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _boot(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._evict_task = asyncio.get_running_loop().create_task(
            self._evict_loop()
        )

    async def _shutdown_async(self) -> None:
        if self._evict_task is not None:
            self._evict_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._evict_task
        # Event streams on jobs that drained to terminal end on their
        # own; cancel whatever is still attached (e.g. a consumer of a
        # job whose client never read the final frames) so the loop
        # stops with no orphaned tasks.
        streams = list(self._streams)
        for task in streams:
            task.cancel()
        if streams:
            await asyncio.gather(*streams, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _evict_loop(self) -> None:
        interval = max(1.0, min(self.queue.ttl_s / 4.0, 30.0))
        while True:
            await asyncio.sleep(interval)
            with activate_metrics(self.metrics):
                for shard in self.shards:
                    shard.queue.evict_expired()

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, query, body = parsed
            if body is _TOO_LARGE:
                status, payload, extra = 413, {"error": "request body too large"}, {}
            else:
                events_job = self._events_job_id(method, path)
                if events_job is not None:
                    await self._stream_events(
                        writer, events_job, since=_since_param(query)
                    )
                    return
                status, payload, extra = self._route(method, path, body)
            await self._respond(writer, status, payload, extra)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        except Exception as exc:  # never let one connection kill the server
            with contextlib.suppress(Exception):
                await self._respond(writer, 500, {"error": f"internal error: {exc}"}, {})
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, Any] | None:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=_HEADER_TIMEOUT_S
        )
        if not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            return "GET", "/__malformed__", "", None
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(
                reader.readline(), timeout=_HEADER_TIMEOUT_S
            )
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        path, _, query = target.partition("?")
        if length > _MAX_BODY_BYTES:
            return method.upper(), path, query, _TOO_LARGE
        body = b""
        if length > 0:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=_HEADER_TIMEOUT_S
            )
        return method.upper(), path, query, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: dict[str, str],
    ) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in extra_headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- progress-event streaming ---------------------------------------

    @staticmethod
    def _events_job_id(method: str, path: str) -> str | None:
        """The job id of an event-stream request, None for anything else."""
        parts = [p for p in path.split("/") if p]
        if (
            method == "GET"
            and len(parts) == 4
            and parts[0] == "v1"
            and parts[1] in ("jobs", "plan")
            and parts[3] == "events"
        ):
            return parts[2]
        return None

    async def _drain_stream(self, writer: asyncio.StreamWriter) -> None:
        """Flush with a consumer deadline: a reader that stops draining
        its socket for ``events_drain_timeout_s`` is disconnected rather
        than allowed to pin server memory."""
        await asyncio.wait_for(
            writer.drain(), timeout=self.events_drain_timeout_s
        )

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str, since: int = 0
    ) -> None:
        """Serve one ``text/event-stream`` connection for a job.

        Replays the job's event log from ``since`` (a resume cursor: the
        ``?since=N`` query parameter carries the next sequence number a
        reconnecting client wants), then follows it until the job is
        terminal (final ``end`` frame) or the consumer goes away.  Keepalive comment frames flush out silently-closed
        connections; a drain announcement is sent once when the service
        starts shutting down mid-stream.  Every exit path detaches the
        task from ``_streams`` and records a ``service.events`` span
        with its outcome, so shutdown can prove no stream was orphaned.
        """
        queue, job = self._find_job(job_id)
        with activate(self.tracer), activate_metrics(self.metrics):
            self.metrics.counter("service.http.events.requests").inc()
            if job is None:
                status, payload, extra = self._gone_or_unknown(queue, job_id)
                self.metrics.counter(f"service.http.status.{status}").inc()
                await self._respond(writer, status, payload, extra)
                return
            self.metrics.counter("service.http.status.200").inc()
        task = asyncio.current_task()
        assert task is not None
        self._streams.add(task)
        outcome = "complete"
        emitted = 0
        t0 = time.perf_counter()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            await self._drain_stream(writer)
            cursor = max(0, since)
            announced_drain = False
            last_write = time.monotonic()
            while True:
                events = queue.events_since(job_id, cursor)
                if events:
                    cursor += len(events)
                    emitted += len(events)
                    for event in events:
                        writer.write(_sse_frame(event))
                    await self._drain_stream(writer)
                    last_write = time.monotonic()
                job = queue.get(job_id)
                if job is None or (
                    job.terminal and not queue.events_since(job_id, cursor)
                ):
                    writer.write(_sse_frame({
                        "seq": cursor,
                        "kind": "end",
                        "state": "evicted" if job is None else job.state,
                    }))
                    emitted += 1
                    await self._drain_stream(writer)
                    break
                if self._draining and not announced_drain:
                    announced_drain = True
                    writer.write(_sse_frame({
                        "seq": cursor, "kind": "draining",
                    }))
                    await self._drain_stream(writer)
                    last_write = time.monotonic()
                if time.monotonic() - last_write >= self.events_keepalive_s:
                    writer.write(b": keepalive\n\n")
                    await self._drain_stream(writer)
                    last_write = time.monotonic()
                await asyncio.sleep(self.events_poll_s)
        except ConnectionError:
            outcome = "disconnect"
        except asyncio.TimeoutError:
            outcome = "slow_consumer"
        except asyncio.CancelledError:
            # Shutdown cancelled us; swallow so the connection's finally
            # block still closes the socket cleanly.  Best-effort flush
            # of whatever landed in the log since the last poll tick
            # (the drain path publishes its `interrupted` event right
            # before streams are cancelled) - buffered writes only, the
            # transport flushes them on close.
            outcome = "shutdown"
            with contextlib.suppress(Exception):
                for event in queue.events_since(job_id, cursor):
                    writer.write(_sse_frame(event))
                    cursor += 1
                    emitted += 1
                if self._draining and not announced_drain:
                    writer.write(_sse_frame({
                        "seq": cursor, "kind": "draining",
                    }))
                    emitted += 1
        finally:
            self._streams.discard(task)
            self.metrics.histogram("service.http.events.latency_s").observe(
                time.perf_counter() - t0
            )
            self.metrics.counter(f"service.events.{outcome}").inc()
            if self.tracer.enabled:
                self.tracer.absorb_records([
                    {
                        "name": "service.events",
                        "span_id": 0,
                        "parent_id": None,
                        "depth": 0,
                        "t_start": 0.0,
                        "duration_s": time.perf_counter() - t0,
                        "attributes": {
                            "job_id": job_id,
                            "outcome": outcome,
                            "events": emitted,
                            "origin": "service",
                        },
                    }
                ])

    # -- routing --------------------------------------------------------

    def _route(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, Any, dict[str, str]]:
        """Dispatch one request; fast bookkeeping only (no solves here)."""
        label, handler = self._resolve(method, path)
        t0 = time.perf_counter()
        with activate(self.tracer), activate_metrics(self.metrics):
            with span("service.request", method=method, path=path) as sp:
                try:
                    status, payload, extra = handler(body)
                except ServiceError as exc:
                    status, payload, extra = 400, {"error": str(exc)}, {}
                except Exception as exc:
                    status, payload, extra = (
                        500,
                        {"error": f"internal error: {exc}"},
                        {},
                    )
                sp.set_attributes(endpoint=label, status=status)
            elapsed = time.perf_counter() - t0
            self.metrics.histogram(f"service.http.{label}.latency_s").observe(
                elapsed
            )
            self.metrics.counter(f"service.http.{label}.requests").inc()
            self.metrics.counter(f"service.http.status.{status}").inc()
        return status, payload, extra

    def _resolve(self, method: str, path: str):
        parts = [p for p in path.split("/") if p]
        if path in _SUBMISSIONS:
            label, normalize = _SUBMISSIONS[path]
            if method != "POST":
                return label, self._method_not_allowed("POST")
            return label, functools.partial(self._post_job, normalize=normalize)
        if path == "/healthz" and method == "GET":
            return "healthz", self._get_healthz
        if path == "/metrics" and method == "GET":
            return "metrics", self._get_metrics
        if path == "/tracez" and method == "GET":
            return "tracez", self._get_tracez
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2 and method == "GET":
                return "jobs_list", self._get_jobs
            if len(parts) == 3 and method == "GET":
                return "job_status", functools.partial(
                    self._get_job, job_id=parts[2]
                )
            if len(parts) == 4 and parts[3] == "result" and method == "GET":
                return "job_result", functools.partial(
                    self._get_result, job_id=parts[2]
                )
            if len(parts) == 4 and parts[3] == "cancel" and method == "POST":
                return "job_cancel", functools.partial(
                    self._post_cancel, job_id=parts[2]
                )
        return "unknown", self._not_found

    @staticmethod
    def _method_not_allowed(allowed: str):
        def handler(body: bytes | None) -> tuple[int, Any, dict[str, str]]:
            return 405, {"error": f"method not allowed; use {allowed}"}, {
                "Allow": allowed
            }

        return handler

    @staticmethod
    def _not_found(body: bytes | None) -> tuple[int, Any, dict[str, str]]:
        return 404, {"error": "no such endpoint"}, {}

    # -- handlers -------------------------------------------------------

    def _post_job(
        self,
        body: bytes | None,
        normalize: Callable[[Any], tuple[dict[str, Any], int]],
    ) -> tuple[int, Any, dict[str, str]]:
        """Admit one plan or mission submission onto its owning shard."""
        if self._draining:
            return 503, {"error": "service is draining; try another replica"}, {}
        try:
            doc = json.loads(body or b"")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}, {}
        with span("service.admission"):
            request, priority = normalize(doc)
            shard = self._shard_for(job_id_for(request))
            try:
                job, created = shard.queue.submit(request, priority)
            except QueueFull as exc:
                retry_after = self._retry_after_s()
                return (
                    429,
                    {"error": str(exc), "retry_after_s": retry_after},
                    {"Retry-After": str(retry_after)},
                )
            except QueueClosed as exc:
                return 503, {"error": str(exc)}, {}
        self._observe_depths()
        return (
            202,
            {
                "job_id": job.job_id,
                "state": job.state,
                "deduplicated": not created,
                "shard": shard.index,
            },
            {},
        )

    def _observe_depths(self) -> None:
        """Refresh the global and per-shard queue-depth gauges."""
        total = 0
        for shard in self.shards:
            depth = shard.queue.depth()
            total += depth
            self.metrics.gauge(f"service.shard.{shard.index}.queue.depth").set(
                depth
            )
        self.metrics.gauge("service.queue.depth").set(total)

    def _retry_after_s(self) -> int:
        """Backlog-drain estimate from the job-duration histogram."""
        hist = self.metrics.histogram("service.job_duration_s")
        mean_s = hist.mean if hist.count else 1.0
        backlog = 0
        for shard in self.shards:
            counts = shard.queue.counts()
            backlog += counts["queued"] + counts["running"]
        dispatchers = sum(shard.bridge.dispatchers for shard in self.shards)
        estimate = mean_s * max(1, backlog) / max(1, dispatchers)
        return max(1, math.ceil(estimate))

    def _aggregate_counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for shard in self.shards:
            for state, count in shard.queue.counts().items():
                total[state] = total.get(state, 0) + count
        return total

    def _get_healthz(self, body: bytes | None) -> tuple[int, Any, dict[str, str]]:
        counts = self._aggregate_counts()
        doc = {
            "status": "draining" if self._draining else "ok",
            "jobs": counts,
            "queue_depth": counts["queued"],
            "dispatchers": sum(s.bridge.dispatchers for s in self.shards),
            "service_workers": self.service_workers,
            "shards": [
                {"shard": s.index, "queue_depth": s.queue.depth()}
                for s in self.shards
            ],
            "active_streams": len(self._streams),
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "journal": (
                None
                if self.journal is None
                else {
                    "directory": str(self.journal.directory),
                    "segments": self.journal.segment_count,
                    "fsync": self.journal.fsync,
                }
            ),
            "recovery": self.recovery,
        }
        return (503 if self._draining else 200), doc, {}

    def _get_metrics(self, body: bytes | None) -> tuple[int, Any, dict[str, str]]:
        self._observe_depths()
        return 200, self.metrics.snapshot(), {}

    def _get_tracez(self, body: bytes | None) -> tuple[int, Any, dict[str, str]]:
        records = self.tracer.get_trace()
        recent = records[-self.tracez_limit :]
        return (
            200,
            {
                "total_spans": len(records),
                "spans": [r.to_dict() for r in recent],
            },
            {},
        )

    def _get_jobs(self, body: bytes | None) -> tuple[int, Any, dict[str, str]]:
        now = time.monotonic()
        entries = []
        for shard in self.shards:
            for job in shard.queue.jobs():
                entry = job.to_dict(now)
                entry["shard"] = shard.index
                entries.append((job.submitted_at, job.job_id, entry))
        entries.sort(key=lambda item: item[:2])
        return (
            200,
            {
                "counts": self._aggregate_counts(),
                "jobs": [entry for _, _, entry in entries],
            },
            {},
        )

    def _gone_or_unknown(
        self, queue: JobQueue, job_id: str
    ) -> tuple[int, Any, dict[str, str]]:
        """404 for never-seen ids, typed ``410 expired`` for TTL-evicted.

        A client that polls too slowly must be able to distinguish "you
        never submitted this" from "your result existed but aged out" -
        retrying the former is useless, resubmitting the latter works
        (content-address dedup gives it the same job id).
        """
        evicted_at = queue.evicted_at(job_id)
        if evicted_at is not None:
            return (
                410,
                {
                    "error": f"job {job_id} expired: result evicted by ttl",
                    "state": "expired",
                    "evicted_at": evicted_at,
                },
                {},
            )
        return 404, {"error": f"unknown job {job_id}"}, {}

    def _get_job(
        self, body: bytes | None, job_id: str
    ) -> tuple[int, Any, dict[str, str]]:
        queue, job = self._find_job(job_id)
        if job is None:
            return self._gone_or_unknown(queue, job_id)
        return 200, job.to_dict(time.monotonic()), {}

    def _get_result(
        self, body: bytes | None, job_id: str
    ) -> tuple[int, Any, dict[str, str]]:
        queue, job = self._find_job(job_id)
        if job is None:
            return self._gone_or_unknown(queue, job_id)
        if job.state == "done":
            return 200, job.result, {}
        if job.state == "failed":
            return 500, {"error": job.error, "state": "failed"}, {}
        if job.state == "cancelled":
            return 410, {"error": "job was cancelled", "state": "cancelled"}, {}
        return 202, {"state": job.state, "job_id": job_id}, {}

    def _post_cancel(
        self, body: bytes | None, job_id: str
    ) -> tuple[int, Any, dict[str, str]]:
        queue, job = self._find_job(job_id)
        if job is None:
            return self._gone_or_unknown(queue, job_id)
        if queue.cancel(job_id):
            return 200, {"job_id": job_id, "state": "cancelled"}, {}
        return (
            409,
            {"error": f"job is {job.state}; only queued jobs can be cancelled"},
            {},
        )


def _since_param(query: str) -> int:
    """The ``since=N`` resume cursor of an event-stream URL (0 default).

    Malformed or negative values fall back to a full replay - resuming
    too early is always safe (the client skips duplicates by seq).
    """
    for part in query.split("&"):
        name, _, value = part.partition("=")
        if name == "since":
            try:
                return max(0, int(value))
            except ValueError:
                return 0
    return 0


def _sse_frame(event: dict[str, Any]) -> bytes:
    """One server-sent event: named by kind, id'd by sequence number."""
    data = json.dumps(event, sort_keys=True, separators=(",", ":"))
    return (
        f"event: {event.get('kind', 'message')}\n"
        f"id: {event.get('seq', 0)}\n"
        f"data: {data}\n\n"
    ).encode("utf-8")


class _TooLarge:
    """Sentinel: request body exceeded the service's size cap."""


_TOO_LARGE = _TooLarge()
