"""Job store for the planning service: admission, dedup, priorities, TTL.

A :class:`JobQueue` is the service's single source of truth about work.
It is a bounded, priority-ordered queue of :class:`Job` records keyed by
a *content address*: the :func:`repro.exec.stable_hash` of the
normalised plan request.  Identical requests therefore coalesce onto
one job id - the second submitter gets the same job (and eventually the
same cached result) instead of a second computation - which is what
makes a stampede of identical scenario transitions cheap to serve.

States and transitions::

    queued --claim--> running --complete--> done
       |                 |
       |cancel           |fail
       v                 v
    cancelled          failed

Terminal jobs (``done``/``failed``/``cancelled``) stay in the store so
results can be fetched and duplicates keep coalescing, until TTL-based
eviction removes them; resubmitting a *cancelled* or *failed* request
revives the job for a fresh attempt.  Capacity bounds the number of
``queued`` jobs only - running and terminal jobs do not count against
admission - and an at-capacity submit raises :class:`QueueFull`, which
the HTTP layer turns into ``429 Retry-After``.

The queue is thread-safe: the asyncio server thread submits and the
executor-bridge dispatcher threads claim, under one condition variable.
Counters land in the ambient :mod:`repro.obs` metrics registry under
``service.jobs.*``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ServiceError
from repro.exec import stable_hash
from repro.obs import get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.service.journal import JobJournal

__all__ = [
    "JOB_STATES",
    "PROVENANCES",
    "Job",
    "JobExpiredError",
    "JobQueue",
    "QueueClosed",
    "QueueFull",
    "job_id_for",
    "normalize_mission_request",
    "normalize_plan_request",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: how a job entered this process: a fresh submission, a journalled job
#: re-installed by recovery, or a mid-claim job re-queued for another run.
PROVENANCES = ("new", "recovered", "retried")

#: evicted-job memory bound: enough to answer ``410 expired`` for any
#: client still polling a recently evicted id, without growing forever.
_EVICTED_MEMORY = 1024

#: request fields accepted by ``POST /v1/plan`` -> (default, caster)
_REQUEST_FIELDS = {
    "separation_factor": (20.0, float),
    "methods": (None, None),  # handled specially
    "foi_target_points": (500, int),
    "lloyd_grid_target": (2000, int),
    "resolution": (32, int),
}


class QueueFull(ServiceError):
    """Admission refused: the queue already holds ``capacity`` jobs.

    ``retry_after_s`` carries the server's backlog-drain estimate when
    one is known (the client attaches the ``Retry-After`` header value).
    """

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueClosed(ServiceError):
    """Admission refused: the service is draining and will not restart."""


class JobExpiredError(ServiceError):
    """The job's result existed but was TTL-evicted before this fetch.

    Distinct from an unknown id (plain 404) so clients stop polling and
    resubmit instead of retrying: the work is gone, not pending.
    ``evicted_at`` is the wall-clock eviction time when the server still
    remembers it.
    """

    def __init__(self, message: str, evicted_at: float | None = None) -> None:
        super().__init__(message)
        self.evicted_at = evicted_at


def normalize_plan_request(doc: Any) -> tuple[dict[str, Any], int]:
    """Validate a ``POST /v1/plan`` body into its canonical dict form.

    Returns ``(request, priority)``.  The request dict is *canonical* -
    scenario ids sorted, methods in :data:`DEFAULT_METHODS` order,
    every knob present with its default filled in - so that any two
    submissions meaning the same computation hash to the same job id.
    ``priority`` is admission metadata, not part of the computation, and
    is deliberately excluded from the canonical dict.

    Raises
    ------
    ServiceError
        On missing/unknown fields or out-of-range values.
    """
    from repro.experiments import DEFAULT_METHODS, SCENARIOS

    if not isinstance(doc, dict):
        raise ServiceError("plan request must be a JSON object")
    body = dict(doc)
    priority_raw = body.pop("priority", 0)
    try:
        priority = int(priority_raw)
    except (TypeError, ValueError):
        raise ServiceError(f"priority must be an integer, got {priority_raw!r}")

    raw_ids = body.pop("scenario_ids", None)
    if raw_ids is None and "scenario_id" in body:
        raw_ids = [body.pop("scenario_id")]
    if not raw_ids:
        raise ServiceError("plan request needs 'scenario_ids' (or 'scenario_id')")
    if not isinstance(raw_ids, (list, tuple)):
        raw_ids = [raw_ids]
    try:
        scenario_ids = sorted({int(s) for s in raw_ids})
    except (TypeError, ValueError):
        raise ServiceError(f"scenario ids must be integers, got {raw_ids!r}")
    unknown_ids = [s for s in scenario_ids if s not in SCENARIOS]
    if unknown_ids:
        raise ServiceError(
            f"unknown scenario ids {unknown_ids}; valid ids are {sorted(SCENARIOS)}"
        )

    methods_raw = body.pop("methods", None)
    if methods_raw is None:
        methods = list(DEFAULT_METHODS)
    else:
        if isinstance(methods_raw, str):
            methods_raw = [methods_raw]
        bad = [m for m in methods_raw if m not in DEFAULT_METHODS]
        if bad:
            raise ServiceError(
                f"unknown methods {bad}; valid methods are {list(DEFAULT_METHODS)}"
            )
        # Canonical order: the same set of methods must hash identically.
        methods = [m for m in DEFAULT_METHODS if m in set(methods_raw)]
        if not methods:
            raise ServiceError("plan request needs at least one method")

    request: dict[str, Any] = {"scenario_ids": scenario_ids, "methods": methods}
    for name, (default, caster) in _REQUEST_FIELDS.items():
        if name == "methods":
            continue
        value = body.pop(name, default)
        try:
            value = caster(value)
        except (TypeError, ValueError):
            raise ServiceError(f"{name} must be a {caster.__name__}, got {value!r}")
        if value <= 0:
            raise ServiceError(f"{name} must be positive, got {value!r}")
        request[name] = value
    if body:
        raise ServiceError(
            f"unknown plan request fields {sorted(body)}; accepted fields are "
            f"{sorted(['scenario_ids', 'scenario_id', 'priority', *_REQUEST_FIELDS])}"
        )
    return request, priority


def normalize_mission_request(doc: Any) -> tuple[dict[str, Any], int]:
    """Validate a ``POST /v1/mission`` body into its canonical dict form.

    The body carries ``spec`` (required), ``config`` and ``faults``
    (optional), and ``priority`` (admission metadata).  Spec and config
    are round-tripped through :class:`~repro.missions.MissionSpec` /
    :class:`~repro.missions.MissionConfig` so every knob is present
    with its default filled in, and the fault schedule is rebuilt via
    :func:`~repro.faults.schedule_from_dict` - any two submissions
    meaning the same mission hash to the same job id.  The canonical
    dict carries ``"kind": "mission"`` so mission job ids can never
    collide with plan-batch ids.

    Raises
    ------
    ServiceError
        On missing/unknown fields or an invalid spec/config/schedule.
    """
    from repro.errors import MissionError, PlanningError
    from repro.faults import schedule_from_dict
    from repro.missions import MissionConfig, MissionSpec

    if not isinstance(doc, dict):
        raise ServiceError("mission request must be a JSON object")
    body = dict(doc)
    priority_raw = body.pop("priority", 0)
    try:
        priority = int(priority_raw)
    except (TypeError, ValueError):
        raise ServiceError(f"priority must be an integer, got {priority_raw!r}")

    spec_doc = body.pop("spec", None)
    if not isinstance(spec_doc, dict):
        raise ServiceError("mission request needs a 'spec' object")
    config_doc = body.pop("config", None) or {}
    if not isinstance(config_doc, dict):
        raise ServiceError("mission 'config' must be a JSON object")
    faults_doc = body.pop("faults", None)
    if body:
        raise ServiceError(
            f"unknown mission request fields {sorted(body)}; accepted "
            "fields are ['config', 'faults', 'priority', 'spec']"
        )
    try:
        spec = MissionSpec.from_dict(spec_doc)
        config = MissionConfig.from_dict(config_doc)
        faults = None if faults_doc is None else schedule_from_dict(faults_doc)
    except (MissionError, PlanningError, TypeError) as exc:
        raise ServiceError(f"invalid mission request: {exc}") from exc

    request: dict[str, Any] = {
        "kind": "mission",
        "spec": spec.to_dict(),
        "config": config.to_dict(),
        "faults": None if faults is None else faults.to_dict(),
    }
    return request, priority


def job_id_for(request: dict[str, Any]) -> str:
    """The content address of a normalised request (the job id).

    :meth:`JobQueue.submit` derives the same id internally; the
    service's mission runner names a job's checkpoint directory by it.
    """
    return stable_hash(request)


@dataclass
class Job:
    """One unit of planning work, identified by its request's content hash.

    Timestamps are :func:`time.monotonic` values from the owning
    queue's clock - meaningful as differences, not wall-clock instants.
    ``submissions`` counts how many times this request was submitted
    (1 + the number of deduplicated resubmissions since last revival).
    """

    job_id: str
    request: dict[str, Any]
    priority: int
    seq: int
    submitted_at: float
    state: str = "queued"
    started_at: float | None = None
    finished_at: float | None = None
    result: bytes | None = None
    error: str | None = None
    submissions: int = 1
    attributes: dict[str, Any] = field(default_factory=dict)
    #: progress events for the streaming endpoint, in publish order;
    #: reset when a failed/cancelled job is revived for a fresh attempt.
    events: list[dict[str, Any]] = field(default_factory=list)
    #: one of :data:`PROVENANCES` - how this job entered the process.
    provenance: str = "new"
    #: a drain-released job parks until restart; claimers skip it.
    interrupted: bool = False
    #: hex SHA-256 of the result payload (set when a result is attached).
    result_digest: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self, now: float | None = None) -> dict[str, Any]:
        """Status document served by ``GET /v1/jobs/{id}`` (no payload)."""
        queue_wait = None
        if self.started_at is not None:
            queue_wait = self.started_at - self.submitted_at
        run_s = None
        if self.started_at is not None:
            end = self.finished_at
            if end is None and now is not None:
                end = now
            if end is not None:
                run_s = end - self.started_at
        return {
            "job_id": self.job_id,
            "state": self.state,
            "priority": self.priority,
            "submissions": self.submissions,
            "provenance": self.provenance,
            "queue_wait_s": queue_wait,
            "run_s": run_s,
            "error": self.error,
            "request": dict(self.request),
        }


class JobQueue:
    """Bounded, deduplicating, priority job store (thread-safe).

    Parameters
    ----------
    capacity : int
        Maximum number of *queued* jobs; an admission beyond it raises
        :class:`QueueFull`.
    ttl_s : float
        How long terminal jobs (and their results) are retained before
        :meth:`evict_expired` may drop them.
    clock : callable
        Monotonic time source (injectable for tests).
    journal : JobJournal, optional
        Write-ahead journal.  When set, every state transition and
        progress event is durably appended (under the queue lock, so
        journal order equals transition order) before the caller
        returns; :meth:`restore` re-installs journalled jobs after a
        crash without re-journalling them.
    """

    def __init__(
        self,
        capacity: int = 64,
        ttl_s: float = 3600.0,
        clock: Callable[[], float] = time.monotonic,
        journal: "JobJournal | None" = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError("queue capacity must be positive")
        if ttl_s <= 0:
            raise ServiceError("job TTL must be positive")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.journal = journal
        self._clock = clock
        self._jobs: dict[str, Job] = {}
        self._evicted: OrderedDict[str, float] = OrderedDict()
        self._cond = threading.Condition()
        self._seq = 0
        self._closed = False
        self._drain = True

    # -- admission ------------------------------------------------------

    def submit(self, request: dict[str, Any], priority: int = 0) -> tuple[Job, bool]:
        """Admit a request; returns ``(job, created)``.

        ``created`` is False when the request deduplicated onto an
        existing job (whose ``submissions`` count is bumped).  A
        cancelled or failed job is *revived*: reset to ``queued`` for a
        fresh attempt under the same id.

        Raises
        ------
        QueueFull
            When admission would exceed ``capacity`` queued jobs.
        QueueClosed
            After :meth:`close`.
        """
        job_id = stable_hash(request)
        metrics = get_metrics()
        with self._cond:
            if self._closed:
                raise QueueClosed("job queue is closed; not accepting submissions")
            self._evict_expired_locked()
            job = self._jobs.get(job_id)
            if job is not None and job.state not in ("cancelled", "failed"):
                job.submissions += 1
                metrics.counter("service.jobs.deduplicated").inc()
                return job, False
            queued = sum(1 for j in self._jobs.values() if j.state == "queued")
            if queued >= self.capacity:
                metrics.counter("service.jobs.rejected").inc()
                raise QueueFull(
                    f"queue is full ({queued}/{self.capacity} jobs queued)"
                )
            now = self._clock()
            if job is not None:  # revive a cancelled/failed job
                job.state = "queued"
                job.priority = priority
                job.submitted_at = now
                job.started_at = None
                job.finished_at = None
                job.result = None
                job.result_digest = None
                job.error = None
                job.submissions += 1
                job.seq = self._seq
                job.provenance = "new"
                job.interrupted = False
                job.events = []  # a fresh attempt starts a fresh stream
                self._journal_locked(
                    "submitted", job_id=job_id, request=job.request,
                    priority=priority, provenance="new",
                    submissions=job.submissions,
                )
                self._publish_locked(job, "queued", revived=True)
            else:
                job = Job(
                    job_id=job_id,
                    request=dict(request),
                    priority=priority,
                    seq=self._seq,
                    submitted_at=now,
                )
                self._jobs[job_id] = job
                self._evicted.pop(job_id, None)
                self._journal_locked(
                    "submitted", job_id=job_id, request=job.request,
                    priority=priority, provenance="new", submissions=1,
                )
                self._publish_locked(job, "queued", revived=False)
            self._seq += 1
            metrics.counter("service.jobs.accepted").inc()
            self._cond.notify()
            return job, True

    # -- worker side ----------------------------------------------------

    def claim(self, timeout: float | None = None) -> Job | None:
        """Take the next queued job (highest priority, FIFO within it).

        Blocks up to ``timeout`` seconds (forever when None).  Returns
        None on timeout, or when the queue is closed and - under
        draining close - no queued work remains.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                candidates = [
                    j for j in self._jobs.values()
                    if j.state == "queued" and not j.interrupted
                ]
                if candidates:
                    job = min(candidates, key=lambda j: (-j.priority, j.seq))
                    job.state = "running"
                    job.started_at = self._clock()
                    self._journal_locked("claimed", job_id=job.job_id)
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return None

    def complete(self, job_id: str, result: bytes) -> None:
        """Mark a running job ``done`` and attach its result payload."""
        self._finish(job_id, "done", result=result)

    def fail(self, job_id: str, error: str) -> None:
        """Mark a running job ``failed`` with a human-readable reason."""
        self._finish(job_id, "failed", error=error)

    def _finish(
        self,
        job_id: str,
        state: str,
        result: bytes | None = None,
        error: str | None = None,
    ) -> None:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state != "running":
                return
            job.state = state
            job.finished_at = self._clock()
            job.result = result
            job.error = error
            if state == "done" and result is not None:
                # Payload first (fsynced side file), then the ``done``
                # record: a surviving record always has its payload.
                digest = None
                if self.journal is not None:
                    digest = self.journal.put_result(job_id, result)
                else:
                    import hashlib

                    digest = hashlib.sha256(result).hexdigest()
                job.result_digest = digest
                self._journal_locked("done", job_id=job_id, digest=digest)
            else:
                self._journal_locked(state, job_id=job_id, error=error)
            self._publish_locked(job, state, error=error)
            self._cond.notify_all()

    def release(self, job_id: str) -> bool:
        """Park a *running* job back in the queue for a post-restart run.

        The graceful-drain path for long jobs: the mission runner
        checkpoints its completed epochs, the bridge releases the job,
        and the ``released`` journal record makes the next process
        re-queue it.  Released jobs are invisible to claimers in this
        process (the drain is already under way), so the job runs again
        only after a restart - resumed from its checkpoint.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state != "running":
                return False
            job.state = "queued"
            job.started_at = None
            job.interrupted = True
            self._journal_locked("released", job_id=job_id)
            self._cond.notify_all()
            get_metrics().counter("service.jobs.released").inc()
            return True

    # -- progress events ------------------------------------------------

    def publish(self, job_id: str, kind: str, **data: Any) -> None:
        """Append a progress event to the job's stream (no-op if gone).

        Events are monotonically sequenced per job; the streaming
        endpoint replays from any cursor via :meth:`events_since`, so a
        reconnecting consumer never misses or re-sees an event.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                self._publish_locked(job, kind, **data)
                self._cond.notify_all()

    def _publish_locked(self, job: Job, kind: str, **data: Any) -> None:
        event = {"seq": len(job.events), "kind": kind, **data}
        job.events.append(event)
        self._journal_locked("event", job_id=job.job_id, event=event)

    def _journal_locked(self, rtype: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.append(rtype, **fields)

    def events_since(self, job_id: str, start: int = 0) -> list[dict[str, Any]]:
        """Copies of the job's events with ``seq >= start`` (empty if gone)."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return []
            return [dict(event) for event in job.events[start:]]

    # -- lifecycle ------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; running/terminal jobs are left alone."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                return False
            job.state = "cancelled"
            job.finished_at = self._clock()
            self._journal_locked("cancelled", job_id=job_id)
            self._publish_locked(job, "cancelled")
            self._cond.notify_all()
            get_metrics().counter("service.jobs.cancelled").inc()
            return True

    def close(self, drain: bool = True) -> None:
        """Stop admissions.  With ``drain`` claimers finish the backlog
        first; without it, still-queued jobs are cancelled immediately."""
        with self._cond:
            self._closed = True
            self._drain = drain
            if not drain:
                for job in self._jobs.values():
                    # Parked (interrupted) jobs survive a non-drain
                    # close: their epochs are checkpointed and the next
                    # journal-backed boot resumes them.
                    if job.state == "queued" and not job.interrupted:
                        job.state = "cancelled"
                        job.finished_at = self._clock()
                        self._journal_locked("cancelled", job_id=job.job_id)
                        self._publish_locked(job, "cancelled")
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection --------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def depth(self) -> int:
        """Number of queued (not yet claimed) jobs."""
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state == "queued")

    def counts(self) -> dict[str, int]:
        """Job count per state (every state present, zero or not)."""
        with self._cond:
            out = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def jobs(self) -> list[Job]:
        """All jobs, admission order."""
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def evict_expired(self) -> int:
        """Drop terminal jobs older than the TTL; returns the count."""
        with self._cond:
            return self._evict_expired_locked()

    def _evict_expired_locked(self) -> int:
        cutoff = self._clock() - self.ttl_s
        stale = [
            job_id
            for job_id, job in self._jobs.items()
            if job.terminal and job.finished_at is not None
            and job.finished_at < cutoff
        ]
        for job_id in stale:
            del self._jobs[job_id]
            at = time.time()
            self._evicted[job_id] = at
            self._evicted.move_to_end(job_id)
            self._journal_locked("evicted", job_id=job_id, at=at)
            if self.journal is not None:
                self.journal.drop_result(job_id)
        while len(self._evicted) > _EVICTED_MEMORY:
            self._evicted.popitem(last=False)
        if stale:
            get_metrics().counter("service.jobs.evicted").inc(len(stale))
        return len(stale)

    def evicted_at(self, job_id: str) -> float | None:
        """Wall-clock eviction time of a TTL-evicted job (None if unknown).

        Unlike the monotonic job timestamps this is ``time.time()``: it
        crosses process restarts via the journal, so a client polling a
        job that expired before the crash still gets its ``410``.
        """
        with self._cond:
            return self._evicted.get(job_id)

    # -- crash recovery -------------------------------------------------

    def restore(self, states: list[dict[str, Any]],
                evicted: dict[str, float] | None = None) -> dict[str, int]:
        """Re-install journal-replayed jobs; returns per-outcome counts.

        At-least-once semantics, leaning on content-address idempotency:

        - ``queued`` jobs (including drain-``released`` ones) come back
          claimable with provenance ``recovered``;
        - ``running`` jobs were mid-claim when the process died - they
          come back ``queued`` with provenance ``retried`` and a
          ``retried`` event on their stream;
        - ``done`` jobs keep their payload when the journalled digest
          verifies, and are otherwise downgraded to ``recovered`` +
          re-queued (re-execution produces byte-identical results);
        - ``failed``/``cancelled`` jobs are restored terminal.

        Nothing is journalled here: the caller compacts the journal from
        :meth:`snapshot_state` immediately afterwards, so the restored
        form *is* the new on-disk truth.  Restored terminal jobs get a
        fresh TTL lease (their monotonic ``finished_at`` did not survive
        the old process).
        """
        stats = {"restored": 0, "requeued": 0, "retried": 0,
                 "completed": 0, "failed": 0, "cancelled": 0}
        with self._cond:
            now = self._clock()
            for state in states:
                request = state.get("request")
                job_id = state.get("job_id")
                if not isinstance(request, dict) or not isinstance(job_id, str):
                    continue
                job = Job(
                    job_id=job_id,
                    request=dict(request),
                    priority=int(state.get("priority", 0)),
                    seq=self._seq,
                    submitted_at=now,
                    submissions=int(state.get("submissions", 1)),
                    events=[dict(e) for e in state.get("events", [])],
                )
                self._seq += 1
                folded = state.get("state", "queued")
                if folded == "done":
                    payload = None
                    digest = state.get("digest")
                    if self.journal is not None:
                        payload = self.journal.get_result(job_id, digest)
                    if payload is not None:
                        job.state = "done"
                        job.provenance = "recovered"
                        job.result = payload
                        job.result_digest = digest
                        job.started_at = now
                        job.finished_at = now
                        stats["completed"] += 1
                    else:
                        # Torn or missing payload: the ack never left
                        # this process, so re-running is the contract.
                        job.state = "queued"
                        job.provenance = "recovered"
                        stats["requeued"] += 1
                elif folded in ("failed", "cancelled"):
                    job.state = folded
                    job.provenance = "recovered"
                    job.error = state.get("error")
                    job.started_at = now if folded == "failed" else None
                    job.finished_at = now
                    stats[folded] += 1
                elif folded == "running":
                    job.state = "queued"
                    job.provenance = "retried"
                    job.events.append(
                        {"seq": len(job.events), "kind": "retried"}
                    )
                    stats["retried"] += 1
                else:  # queued (fresh or drain-released)
                    job.state = "queued"
                    prior = str(state.get("provenance", "new"))
                    job.provenance = "retried" if prior == "retried" else "recovered"
                    stats["retried" if prior == "retried" else "requeued"] += 1
                stats["restored"] += 1
                self._jobs[job_id] = job
            if evicted:
                for job_id, at in evicted.items():
                    self._evicted[job_id] = float(at)
                    self._evicted.move_to_end(job_id)
                while len(self._evicted) > _EVICTED_MEMORY:
                    self._evicted.popitem(last=False)
            self._cond.notify_all()
        metrics = get_metrics()
        for key in ("restored", "requeued", "retried"):
            if stats[key]:
                metrics.counter(f"service.recovery.jobs_{key}").inc(stats[key])
        return stats

    def snapshot_state(self) -> tuple[list[dict[str, Any]], dict[str, float]]:
        """Folded-state snapshot of every live job (for compaction).

        Shape matches what :func:`repro.service.journal.replay_records`
        produces, so ``compact`` can treat live state and replayed state
        identically.
        """
        with self._cond:
            jobs = [
                {
                    "job_id": job.job_id,
                    "request": dict(job.request),
                    "priority": job.priority,
                    "provenance": job.provenance,
                    "state": job.state,
                    "interrupted": job.interrupted,
                    "events": [dict(e) for e in job.events],
                    "error": job.error,
                    "digest": job.result_digest,
                    "submissions": job.submissions,
                }
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
            ]
            return jobs, dict(self._evicted)
