"""Bridge between the job store and the dispatcher threads that solve jobs.

Dispatcher threads claim jobs off the :class:`~repro.service.jobs.JobQueue`
and run each one as a plain attempt loop: every attempt calls the runner
on a fresh daemon thread inside a copy of the dispatcher's context, and
the dispatcher joins it for at most ``job_timeout_s``.  A timed-out
attempt is abandoned (its daemon thread cannot hold up process exit),
and after ``retries + 1`` failed attempts the job fails with
:class:`~repro.errors.ExecutionError`.  Timeouts and retries count in
``exec.task_timeouts`` and ``exec.task_retries``.

Because the attempt runs in the dispatcher's context, the runner's spans
and metrics land directly on the *server's* tracer and registry, nested
under the job's spans on the service clock::

    service.job
      service.queue_wait   (true queued duration, absorbed as a record)
      service.solve
        ... whatever the runner emits (e.g. the planner's spans)
      service.serialize

and each job feeds the two histograms the HTTP layer reads back out:
``service.queue_wait_s`` and ``service.job_duration_s`` (the latter is
what ``Retry-After`` estimates are computed from).

Attempts run on threads of the service process: the solve shares the
service's in-process content cache (deduplicated scenario requests hit
the same disk-map entries), numpy releases the GIL enough for the
service's granularity, a runner closure does not need to pickle, and a
progress-aware runner streams its events straight into the job's log.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Any, Callable

from repro.errors import ExecutionError
from repro.io import dumps_canonical
from repro.obs import Metrics, Tracer, activate, activate_metrics, span

from repro.service.jobs import Job, JobQueue

__all__ = ["ExecutorBridge"]


class ExecutorBridge:
    """Runs queued jobs on dispatcher threads, one attempt thread at a time.

    Parameters
    ----------
    queue : JobQueue
    runner : callable
        ``runner(request) -> JSON-serialisable dict``; each attempt runs
        it on its own thread in a copy of the dispatcher's context (the
        server's tracer and metrics, inside the job's spans).  Bind
        caches into the callable.
    dispatchers : int
        Number of dispatcher threads = jobs in flight concurrently.
    job_timeout_s : float, optional
        Per-attempt wall-clock budget (a timed-out attempt is abandoned
        on its daemon thread; it cannot wedge the dispatcher or hold up
        process exit).
    retries : int
        Extra attempts for a failed or timed-out job.
    tracer, metrics
        The *server's* observability objects; every job runs under them.
    """

    def __init__(
        self,
        queue: JobQueue,
        runner: Callable[[dict[str, Any]], Any],
        dispatchers: int = 2,
        job_timeout_s: float | None = None,
        retries: int = 1,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        if dispatchers < 1:
            raise ValueError("dispatchers must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.queue = queue
        self.runner = runner
        self.dispatchers = dispatchers
        self.job_timeout_s = job_timeout_s
        self.retries = retries
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else Metrics()
        self._threads: list[threading.Thread] = []
        self._started = False
        #: set when a drain begins; interrupt-aware runners poll it at
        #: epoch boundaries and checkpoint-and-release instead of
        #: finishing (or losing) a long mission.
        self._drain_event = threading.Event()

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.dispatchers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-service-dispatch-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def request_drain(self) -> None:
        """Ask in-flight interrupt-aware jobs to wind down gracefully.

        Missions see this at their next epoch boundary, checkpoint, and
        are released back to the queue (parked until a restart resumes
        them); short jobs simply finish.
        """
        self._drain_event.set()

    @property
    def draining(self) -> bool:
        return self._drain_event.is_set()

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Close the queue and join the dispatchers.

        With ``drain`` (the default) dispatchers finish every queued
        job first; without it they exit after their current job and the
        backlog is cancelled.  Either way in-flight interrupt-aware
        jobs (missions) are asked to checkpoint-and-release at their
        next epoch boundary rather than run to the end.
        """
        self._drain_event.set()
        self.queue.close(drain=drain)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = [t for t in self._threads if t.is_alive()]

    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.claim(timeout=0.5)
            if job is None:
                if self.queue.closed:
                    return
                continue
            with activate(self.tracer), activate_metrics(self.metrics):
                self._run_job(job)

    def _run_job(self, job: Job) -> None:
        metrics = self.metrics
        shard = self.queue.shard
        queue_wait = (job.started_at or 0.0) - job.submitted_at
        metrics.histogram("service.queue_wait_s").observe(queue_wait)
        metrics.gauge("service.queue.depth").set(self.queue.depth())
        if shard is not None:
            # Per-shard claim latency: how long this job sat queued on
            # *this* shard before a dispatcher claimed it.  The loadgen
            # report reads these to attribute tail latency to a shard.
            metrics.histogram(
                f"service.shard.{shard}.claim_latency_s"
            ).observe(queue_wait)
            metrics.gauge(f"service.shard.{shard}.queue.depth").set(
                self.queue.depth()
            )
        self.queue.publish(
            job.job_id, "claimed", queue_wait_s=queue_wait, shard=shard
        )
        with span(
            "service.job", job_id=job.job_id, priority=job.priority
        ) as job_span:
            self._absorb_queue_wait_span(job, queue_wait)
            runner = self.runner
            if getattr(runner, "supports_progress", False):
                # Live streaming: the runner emits (kind, data) events
                # straight into the job's event log as the mission
                # advances.
                interrupt = None
                if getattr(self.runner, "supports_interrupt", False):
                    interrupt = self._drain_event.is_set
                runner = _with_progress(
                    runner, self.queue, job.job_id, interrupt=interrupt
                )
            t0 = time.monotonic()
            try:
                with span("service.solve", job_id=job.job_id):
                    doc = self._solve(runner, job.request)
                if (
                    isinstance(doc, dict)
                    and doc.get("kind") == "mission_interrupted"
                ):
                    # The mission honoured a drain interrupt: its
                    # completed epochs are checkpointed, so park the
                    # job for the next process instead of failing it.
                    epochs_done = int(doc.get("epochs_completed", 0))
                    self.queue.publish(
                        job.job_id, "interrupted",
                        epochs_completed=epochs_done,
                    )
                    self.queue.release(job.job_id)
                    metrics.counter("service.jobs.interrupted").inc()
                    job_span.set_attributes(
                        outcome="interrupted", epochs_completed=epochs_done
                    )
                    return
                t_solved = time.monotonic()
                self.queue.publish(
                    job.job_id, "phase", phase="solve",
                    duration_s=t_solved - t0,
                )
                with span("service.serialize", job_id=job.job_id):
                    payload = dumps_canonical(doc)
                self.queue.publish(
                    job.job_id, "phase", phase="serialize",
                    duration_s=time.monotonic() - t_solved,
                )
            except ExecutionError as exc:
                job_span.set_attributes(outcome="failed")
                metrics.counter("service.jobs.failed").inc()
                self.queue.fail(job.job_id, f"ExecutionError: {exc}")
                return
            except Exception as exc:  # runner bugs must not kill dispatchers
                job_span.set_attributes(outcome="failed")
                metrics.counter("service.jobs.failed").inc()
                self.queue.fail(job.job_id, f"{type(exc).__name__}: {exc}")
                return
            metrics.histogram("service.job_duration_s").observe(
                time.monotonic() - t0
            )
            metrics.counter("service.jobs.solved").inc()
            job_span.set_attributes(outcome="done", payload_bytes=len(payload))
            self.queue.complete(job.job_id, payload)

    def _solve(
        self, runner: Callable[[dict[str, Any]], Any], request: dict[str, Any]
    ) -> Any:
        """Run ``runner(request)``: at most ``retries + 1`` timed attempts."""
        for attempt in range(self.retries + 1):
            if attempt:
                self.metrics.counter("exec.task_retries").inc()
            outcome: dict[str, Any] = {}
            thread = threading.Thread(
                target=_attempt,
                args=(contextvars.copy_context(), runner, request, outcome),
                name="repro-service-attempt",
                daemon=True,
            )
            thread.start()
            thread.join(self.job_timeout_s)
            if thread.is_alive():
                self.metrics.counter("exec.task_timeouts").inc()
                failure = TimeoutError(
                    f"attempt exceeded the {self.job_timeout_s} s job timeout"
                )
            elif "doc" in outcome:
                return outcome["doc"]
            else:
                failure = outcome.get("error")
        raise ExecutionError(
            f"job failed after {self.retries + 1} attempt(s): {failure!r}"
        ) from failure

    def _absorb_queue_wait_span(self, job: Job, queue_wait: float) -> None:
        """Inject the already-elapsed queue wait as a real span record."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.absorb_records([
            {
                "name": "service.queue_wait",
                "span_id": 0,
                "parent_id": None,
                "depth": 1,
                "t_start": 0.0,
                "duration_s": queue_wait,
                "attributes": {"job_id": job.job_id, "origin": "service"},
            }
        ])


def _attempt(
    context: contextvars.Context,
    runner: Callable[[dict[str, Any]], Any],
    request: dict[str, Any],
    outcome: dict[str, Any],
) -> None:
    """One attempt's thread body: the runner's result or error into ``outcome``."""
    try:
        outcome["doc"] = context.run(runner, request)
    except Exception as exc:
        outcome["error"] = exc


def _with_progress(
    runner: Callable[..., Any],
    queue: JobQueue,
    job_id: str,
    interrupt: Callable[[], bool] | None = None,
) -> Callable[[dict[str, Any]], Any]:
    """Bind a runner's ``progress`` callback (and drain interrupt) to a job.

    The callback publishes best-effort: a job evicted mid-run (TTL
    race) must not kill the solve that is producing its result.
    ``interrupt`` (the bridge's drain event, when the runner advertises
    ``supports_interrupt``) lets a mission checkpoint-and-release at an
    epoch boundary instead of being lost to a shutdown.
    """

    def progress(kind: str, data: dict[str, Any]) -> None:
        try:
            queue.publish(job_id, kind, **data)
        except Exception:
            pass

    def run(request: dict[str, Any]) -> Any:
        if interrupt is not None:
            return runner(request, progress=progress, interrupt=interrupt)
        return runner(request, progress=progress)

    return run

