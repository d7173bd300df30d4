"""Planning-as-a-service: serve marching/plan computation over HTTP.

The service layer turns the one-shot experiment harness into a
long-running concurrent endpoint, reusing the substrate the library
already has - :mod:`repro.exec` for fan-out/timeouts/retries/caching
and :mod:`repro.obs` for per-request span trees and live metrics:

* :class:`JobQueue` - bounded admission with priorities, request
  deduplication by content hash, and TTL-based result retention.
* :class:`ExecutorBridge` - dispatcher threads that run each job
  attempt on its own thread (per-attempt timeout, bounded retries,
  spans nested under the job's on the server's tracer).
* :class:`ShardRouter` - consistent-hash routing of content addresses
  onto shard workers, so a fleet deduplicates exactly like one queue.
* :class:`JobJournal` - the write-ahead journal (fsynced, versioned,
  segment-rotated) that makes the queue's state transitions durable;
  on startup the service replays it, re-enqueues non-terminal jobs
  (at-least-once, made effectively exactly-once by content-address
  dedup) and compacts the log.  Missions additionally checkpoint per
  epoch (:class:`repro.missions.MissionCheckpoint`) so a killed
  process resumes mid-mission with a byte-identical document.
* :class:`PlanningService` - the asyncio HTTP frontend
  (``POST /v1/plan``, ``POST /v1/mission`` streaming mission jobs, job
  polling, SSE progress streaming at ``GET /v1/jobs/{id}/events`` with
  ``?since=`` resume cursors, ``/healthz``, ``/metrics``, ``/tracez``)
  over ``service_workers`` shard workers, with 429-with-``Retry-After``
  backpressure and graceful draining.
* :class:`ServiceClient` - the blocking stdlib client used by tests,
  examples, the load generator and ``repro submit``; its
  ``run_mission``/``iter_events`` follow mission event streams and
  resume dropped SSE connections from the last-seen sequence number.

Quickstart::

    from repro.service import PlanningService, ServiceClient

    with PlanningService(port=0, dispatchers=2) as service:
        client = ServiceClient(port=service.port)
        submitted = client.submit([1], separation_factor=12.0)
        client.wait(submitted["job_id"])
        document = client.result(submitted["job_id"])
"""

from repro.service.client import ServiceClient
from repro.service.executor_bridge import ExecutorBridge
from repro.service.jobs import (
    JOB_STATES,
    Job,
    JobExpiredError,
    JobQueue,
    QueueClosed,
    QueueFull,
    job_id_for,
    normalize_mission_request,
    normalize_plan_request,
)
from repro.service.journal import JobJournal, JournalReplay, replay_records
from repro.service.server import (
    PlanningService,
    ShardWorker,
    default_runner,
    run_mission_request,
    run_plan_request,
)
from repro.service.sharding import ShardRouter

__all__ = [
    "JOB_STATES",
    "ExecutorBridge",
    "Job",
    "JobExpiredError",
    "JobJournal",
    "JobQueue",
    "JournalReplay",
    "PlanningService",
    "QueueClosed",
    "QueueFull",
    "ServiceClient",
    "ShardRouter",
    "ShardWorker",
    "default_runner",
    "job_id_for",
    "normalize_mission_request",
    "normalize_plan_request",
    "replay_records",
    "run_mission_request",
    "run_plan_request",
]
