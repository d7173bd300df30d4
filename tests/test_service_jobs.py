"""Unit tests for the service job store: admission, dedup, TTL, claims."""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.io import dumps_canonical
from repro.obs import activate_metrics
from repro.service import (
    JobQueue,
    PlanningService,
    QueueClosed,
    QueueFull,
    job_id_for,
    normalize_plan_request,
)


def request(sep=20.0, **overrides):
    body = {"scenario_ids": [1], "separation_factor": sep}
    body.update(overrides)
    normalized, _priority = normalize_plan_request(body)
    return normalized


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestNormalization:
    def test_defaults_filled_in(self):
        req, priority = normalize_plan_request({"scenario_id": 3})
        assert req["scenario_ids"] == [3]
        assert req["separation_factor"] == 20.0
        assert req["foi_target_points"] == 500
        assert req["lloyd_grid_target"] == 2000
        assert req["resolution"] == 32
        assert priority == 0

    def test_equivalent_requests_canonicalise_identically(self):
        a, _ = normalize_plan_request(
            {"scenario_ids": [2, 1], "methods": ["Hungarian", "ours (a)"]}
        )
        b, _ = normalize_plan_request(
            {"scenario_ids": [1, 2, 2], "methods": ["ours (a)", "Hungarian"],
             "priority": 5}
        )
        assert a == b

    def test_priority_not_part_of_request(self):
        req, priority = normalize_plan_request({"scenario_id": 1, "priority": 7})
        assert priority == 7
        assert "priority" not in req

    @pytest.mark.parametrize("body", [
        [],                                          # not an object
        {},                                          # no scenarios
        {"scenario_ids": [99]},                      # unknown scenario
        {"scenario_id": 1, "methods": ["nope"]},     # unknown method
        {"scenario_id": 1, "methods": []},           # no methods
        {"scenario_id": 1, "resolution": 0},         # non-positive knob
        {"scenario_id": 1, "separation_factor": "x"},
        {"scenario_id": 1, "frobnicate": True},      # unknown field
    ])
    def test_rejects_malformed(self, body):
        with pytest.raises(ServiceError):
            normalize_plan_request(body)


class TestAdmission:
    def test_submit_and_claim(self):
        queue = JobQueue(capacity=4)
        job, created = queue.submit(request())
        assert created and job.state == "queued"
        claimed = queue.claim(timeout=0.1)
        assert claimed is job and claimed.state == "running"
        queue.complete(job.job_id, b"{}")
        assert queue.get(job.job_id).state == "done"
        assert queue.get(job.job_id).result == b"{}"

    def test_duplicate_submission_same_job_id(self):
        queue = JobQueue(capacity=4)
        a, created_a = queue.submit(request())
        b, created_b = queue.submit(request())
        assert created_a and not created_b
        assert a.job_id == b.job_id
        assert queue.get(a.job_id).submissions == 2

    def test_done_jobs_still_deduplicate(self):
        queue = JobQueue(capacity=4)
        job, _ = queue.submit(request())
        queue.claim(timeout=0.1)
        queue.complete(job.job_id, b"{}")
        again, created = queue.submit(request())
        assert not created and again.state == "done"

    def test_capacity_counts_queued_only(self):
        queue = JobQueue(capacity=1)
        first, _ = queue.submit(request(sep=10.0))
        queue.claim(timeout=0.1)  # running jobs free the slot
        queue.submit(request(sep=11.0))
        with pytest.raises(QueueFull):
            queue.submit(request(sep=12.0))

    def test_failed_job_revived_on_resubmit(self):
        queue = JobQueue(capacity=4)
        job, _ = queue.submit(request())
        queue.claim(timeout=0.1)
        queue.fail(job.job_id, "boom")
        revived, created = queue.submit(request())
        assert created and revived.job_id == job.job_id
        assert revived.state == "queued" and revived.error is None

    def test_closed_queue_rejects(self):
        queue = JobQueue(capacity=4)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.submit(request())


class TestOrderingAndCancel:
    def test_priority_then_fifo(self):
        queue = JobQueue(capacity=8)
        low, _ = queue.submit(request(sep=10.0), priority=0)
        high, _ = queue.submit(request(sep=11.0), priority=5)
        low2, _ = queue.submit(request(sep=12.0), priority=0)
        order = [queue.claim(timeout=0.1).job_id for _ in range(3)]
        assert order == [high.job_id, low.job_id, low2.job_id]

    def test_cancel_only_queued(self):
        queue = JobQueue(capacity=4)
        job, _ = queue.submit(request())
        assert queue.cancel(job.job_id)
        assert queue.get(job.job_id).state == "cancelled"
        job2, _ = queue.submit(request(sep=11.0))
        queue.claim(timeout=0.1)
        assert not queue.cancel(job2.job_id)  # running

    def test_cancelled_job_revived_on_resubmit(self):
        queue = JobQueue(capacity=4)
        job, _ = queue.submit(request())
        queue.cancel(job.job_id)
        revived, created = queue.submit(request())
        assert created and revived.state == "queued"
        assert revived.job_id == job.job_id

    def test_claim_blocks_until_submit(self):
        queue = JobQueue(capacity=4)
        got = []

        def claimer():
            got.append(queue.claim(timeout=5.0))

        thread = threading.Thread(target=claimer)
        thread.start()
        job, _ = queue.submit(request())
        thread.join(timeout=5.0)
        assert got and got[0].job_id == job.job_id

    def test_close_without_drain_cancels_backlog(self):
        queue = JobQueue(capacity=4)
        job, _ = queue.submit(request())
        queue.close(drain=False)
        assert queue.get(job.job_id).state == "cancelled"
        assert queue.claim(timeout=0.1) is None

    def test_close_with_drain_serves_backlog(self):
        queue = JobQueue(capacity=4)
        job, _ = queue.submit(request())
        queue.close(drain=True)
        assert queue.claim(timeout=0.1).job_id == job.job_id
        assert queue.claim(timeout=0.1) is None


class TestTTL:
    def test_terminal_jobs_evicted_after_ttl(self):
        clock = FakeClock()
        queue = JobQueue(capacity=4, ttl_s=10.0, clock=clock)
        job, _ = queue.submit(request())
        queue.claim(timeout=0.1)
        queue.complete(job.job_id, b"{}")
        clock.now = 5.0
        assert queue.evict_expired() == 0
        clock.now = 20.0
        assert queue.evict_expired() == 1
        assert queue.get(job.job_id) is None

    def test_active_jobs_never_evicted(self):
        clock = FakeClock()
        queue = JobQueue(capacity=4, ttl_s=10.0, clock=clock)
        queued, _ = queue.submit(request(sep=10.0))
        running, _ = queue.submit(request(sep=11.0))
        queue.claim(timeout=0.1)
        clock.now = 1e6
        assert queue.evict_expired() == 0
        assert queue.counts()["queued"] + queue.counts()["running"] == 2

    def test_eviction_allows_fresh_submission(self):
        clock = FakeClock()
        queue = JobQueue(capacity=4, ttl_s=10.0, clock=clock)
        job, _ = queue.submit(request())
        queue.claim(timeout=0.1)
        queue.complete(job.job_id, b"{}")
        clock.now = 20.0  # submit() evicts opportunistically
        fresh, created = queue.submit(request())
        assert created and fresh.state == "queued"

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServiceError):
            JobQueue(capacity=0)
        with pytest.raises(ServiceError):
            JobQueue(ttl_s=0.0)


class TestStatusDocument:
    def test_to_dict_shape(self):
        clock = FakeClock()
        queue = JobQueue(capacity=4, clock=clock)
        job, _ = queue.submit(request(), priority=3)
        clock.now = 2.0
        queue.claim(timeout=0.1)
        clock.now = 5.0
        queue.complete(job.job_id, b"{}")
        doc = job.to_dict()
        assert doc["state"] == "done"
        assert doc["priority"] == 3
        assert doc["queue_wait_s"] == pytest.approx(2.0)
        assert doc["run_s"] == pytest.approx(3.0)
        assert doc["request"]["scenario_ids"] == [1]
        assert "result" not in doc


def _normalized(scenario_id: int, separation: float) -> dict:
    normalized, _ = normalize_plan_request({
        "scenario_ids": [scenario_id],
        "separation_factor": separation,
        "methods": ["ours (a)"],
        "foi_target_points": 50,
        "lloyd_grid_target": 100,
        "resolution": 8,
    })
    return normalized


#: 4 unique requests, each submitted 4 times = the e2e dedup matrix.
_POOL = [
    _normalized(1, 5.0),
    _normalized(2, 5.0),
    _normalized(4, 10.0),
    _normalized(5, 10.0),
]
_SUBMISSIONS = [i for i in range(4) for _ in range(4)]


def _echo_runner(request):
    """Deterministic stand-in for the planner (pure function of input)."""
    return {"echo": request, "format_version": 1}


def _run_service(dispatchers: int, order) -> tuple[dict, int, int]:
    """Submit the matrix in the given order; return (results, solved, dedup).

    Drives the service's real JobQueue -> ExecutorBridge stack (the
    HTTP thread plays no part in dedup, so it stays down).
    """
    svc = PlanningService(port=0, dispatchers=dispatchers, runner=_echo_runner)
    svc.bridge.start()
    try:
        job_ids = []
        # The HTTP layer submits under the service's metrics registry;
        # direct submission must activate it the same way for the
        # dedup counter to land there.
        with activate_metrics(svc.metrics):
            for index in order:
                job, _created = svc.queue.submit(_POOL[index])
                job_ids.append(job.job_id)
        assert len(set(job_ids)) == len(_POOL)
        deadline = time.monotonic() + 30.0
        results = {}
        for job_id in set(job_ids):
            while True:
                job = svc.queue.get(job_id)
                if job is not None and job.terminal:
                    assert job.state == "done", job.error
                    results[job_id] = job.result
                    break
                if time.monotonic() > deadline:
                    raise AssertionError(f"job {job_id} never finished")
                time.sleep(0.005)
        snapshot = svc.metrics.snapshot()
        solved = snapshot["service.jobs.solved"]["value"]
        dedup = snapshot.get("service.jobs.deduplicated", {}).get("value", 0)
        return results, solved, dedup
    finally:
        svc.bridge.stop(drain=False, timeout=5.0)


class TestOneQueueDedup:
    """Dedup is invisible in results: any dispatcher count and any
    submission order give byte-identical documents, exactly one solve
    per unique content address and the same dedup count."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(order=st.permutations(_SUBMISSIONS))
    def test_any_worker_count_any_order_same_bytes_one_solve_each(
        self, order
    ):
        reference = None
        for dispatchers in (1, 2, 4):
            results, solved, dedup = _run_service(dispatchers, order)
            assert solved == len(_POOL)
            assert dedup == len(_SUBMISSIONS) - len(_POOL)
            if reference is None:
                reference = results
            else:
                assert results == reference  # byte-identical documents

    def test_results_match_direct_runner_output(self):
        results, solved, _dedup = _run_service(2, _SUBMISSIONS)
        assert solved == len(_POOL)
        for request in _POOL:
            job_id = job_id_for(request)
            assert results[job_id] == dumps_canonical(_echo_runner(request))

    def test_concurrent_submitters_race_to_one_creator(self):
        """16 threads submitting 4 uniques to one service: exactly one
        creator per unique, regardless of interleaving."""
        svc = PlanningService(port=0, dispatchers=2, runner=_echo_runner)
        svc.bridge.start()
        try:
            created_flags = []
            lock = threading.Lock()

            def submit(index):
                _job, created = svc.queue.submit(_POOL[index])
                with lock:
                    created_flags.append((index, created))

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in _SUBMISSIONS
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert len(created_flags) == len(_SUBMISSIONS)
            for index in range(len(_POOL)):
                creators = [
                    created
                    for i, created in created_flags
                    if i == index and created
                ]
                assert len(creators) == 1
        finally:
            svc.bridge.stop(drain=False, timeout=5.0)
