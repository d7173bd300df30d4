"""HTTP-layer tests for the planning service.

Fast by construction: every server here gets an injected runner
(echo / blocking / sleeping), so these tests exercise admission,
backpressure, dedup, failure states, graceful shutdown and the
introspection endpoints without ever running a real solve.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.io import dumps_canonical
from repro.obs import span
from repro.service import PlanningService, QueueFull, ServiceClient

SRC = Path(__file__).resolve().parents[1] / "src"

#: A service whose only job outlives its timeout by 20 s, then exits.
TIMED_OUT_JOB_SCRIPT = """
import time
from repro.service import PlanningService, ServiceClient

def sleeper(request):
    time.sleep(20.0)
    return {}

svc = PlanningService(
    port=0, dispatchers=1, runner=sleeper, job_timeout_s=0.2, retries=0
)
with svc:
    client = ServiceClient(port=svc.port)
    submitted = client.submit([1])
    status = client.wait(submitted["job_id"], timeout=10.0)
    assert status["state"] == "failed", status
"""


def echo_runner(request):
    return {"echo": request["scenario_ids"], "sep": request["separation_factor"]}


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture()
def service():
    with PlanningService(port=0, dispatchers=2, runner=echo_runner) as svc:
        yield svc


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port)


class TestSubmitPollFetch:
    def test_roundtrip(self, client):
        submitted = client.submit([1], separation_factor=12.0)
        assert submitted["state"] in ("queued", "running", "done")
        status = client.wait(submitted["job_id"], timeout=10.0)
        assert status["state"] == "done"
        assert status["queue_wait_s"] >= 0.0
        document = client.result(submitted["job_id"])
        assert document == {"echo": [1], "sep": 12.0}

    def test_result_bytes_are_canonical(self, client):
        submitted = client.submit([2], separation_factor=15.0)
        client.wait(submitted["job_id"], timeout=10.0)
        raw = client.result_bytes(submitted["job_id"])
        assert raw == dumps_canonical({"echo": [2], "sep": 15.0})

    def test_duplicate_submission_same_job_id(self, client):
        first = client.submit([1], separation_factor=33.0)
        second = client.submit([1], separation_factor=33.0)
        assert first["job_id"] == second["job_id"]
        assert second["deduplicated"]
        metrics = client.metrics()
        assert metrics["service.jobs.deduplicated"]["value"] >= 1

    def test_jobs_listing(self, client):
        submitted = client.submit([1], separation_factor=18.0)
        client.wait(submitted["job_id"], timeout=10.0)
        listing = client.jobs()
        assert listing["counts"]["done"] >= 1
        assert any(j["job_id"] == submitted["job_id"] for j in listing["jobs"])

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("deadbeef")
        with pytest.raises(ServiceError, match="404"):
            client.result("deadbeef")

    def test_malformed_body_400(self, service):
        client = ServiceClient(port=service.port)
        status, _, data = client._request("POST", "/v1/plan", None)
        assert status == 400
        status, _, _ = client._request("POST", "/v1/plan", {"scenario_ids": [99]})
        assert status == 400

    def test_unknown_route_404_and_wrong_method_405(self, client):
        status, _, _ = client._request("GET", "/nope")
        assert status == 404
        status, headers, _ = client._request("GET", "/v1/plan")
        assert status == 405
        assert headers.get("allow") == "POST"

    def test_result_not_ready_202(self):
        gate = threading.Event()

        def blocking_runner(request):
            gate.wait(20.0)
            return {}

        svc = PlanningService(port=0, dispatchers=1, runner=blocking_runner)
        with svc:
            client = ServiceClient(port=svc.port)
            first = client.submit([1], separation_factor=10.0)
            assert wait_for(
                lambda: client.status(first["job_id"])["state"] == "running"
            )
            queued = client.submit([1], separation_factor=11.0)
            for job_id in (first["job_id"], queued["job_id"]):
                status, _, data = client._request(
                    "GET", f"/v1/jobs/{job_id}/result"
                )
                assert status == 202
                assert json.loads(data)["state"] in ("queued", "running")
            gate.set()
            client.wait(first["job_id"], timeout=10.0)


class TestBackpressure:
    def test_full_queue_429_with_retry_after(self):
        gate = threading.Event()

        def blocking_runner(request):
            gate.wait(20.0)
            return {"ok": True}

        svc = PlanningService(
            port=0, dispatchers=1, capacity=1, runner=blocking_runner
        )
        with svc:
            client = ServiceClient(port=svc.port)
            first = client.submit([1], separation_factor=10.0)
            # Wait until the only dispatcher is busy running the first job.
            assert wait_for(
                lambda: client.status(first["job_id"])["state"] == "running"
            )
            client.submit([1], separation_factor=11.0)  # fills the queue
            with pytest.raises(QueueFull) as excinfo:
                client.submit([1], separation_factor=12.0)
            assert excinfo.value.retry_after_s is not None
            assert excinfo.value.retry_after_s >= 1
            # Raw response carries the header and a JSON error body.
            status, headers, data = client._request(
                "POST", "/v1/plan",
                {"scenario_ids": [1], "separation_factor": 13.0},
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "queue is full" in json.loads(data)["error"]
            gate.set()
            client.wait(first["job_id"], timeout=10.0)

    def test_metrics_count_rejections(self):
        gate = threading.Event()
        svc = PlanningService(
            port=0, dispatchers=1, capacity=1,
            runner=lambda request: gate.wait(20.0) and {} or {},
        )
        with svc:
            client = ServiceClient(port=svc.port)
            first = client.submit([1], separation_factor=10.0)
            assert wait_for(
                lambda: client.status(first["job_id"])["state"] == "running"
            )
            client.submit([1], separation_factor=11.0)
            with pytest.raises(QueueFull):
                client.submit([1], separation_factor=12.0)
            assert client.metrics()["service.jobs.rejected"]["value"] >= 1
            gate.set()


class TestFailurePaths:
    def test_job_timeout_fails_with_execution_error(self):
        def slow_runner(request):
            time.sleep(1.5)
            return {}

        svc = PlanningService(
            port=0, dispatchers=1, runner=slow_runner,
            job_timeout_s=0.1, retries=0,
        )
        with svc:
            client = ServiceClient(port=svc.port)
            submitted = client.submit([1])
            status = client.wait(submitted["job_id"], timeout=10.0)
            assert status["state"] == "failed"
            assert "ExecutionError" in status["error"]
            with pytest.raises(ServiceError, match="500"):
                client.result(submitted["job_id"])

    def test_runner_exception_fails_job(self):
        def broken_runner(request):
            raise ValueError("solver exploded")

        svc = PlanningService(
            port=0, dispatchers=1, runner=broken_runner, retries=0
        )
        with svc:
            client = ServiceClient(port=svc.port)
            submitted = client.submit([1])
            status = client.wait(submitted["job_id"], timeout=10.0)
            assert status["state"] == "failed"
            assert "solver exploded" in status["error"]

    def test_failed_job_resubmission_retries(self):
        calls = []

        def flaky_runner(request):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("transient")
            return {"ok": True}

        svc = PlanningService(
            port=0, dispatchers=1, runner=flaky_runner, retries=0
        )
        with svc:
            client = ServiceClient(port=svc.port)
            submitted = client.submit([1])
            status = client.wait(submitted["job_id"], timeout=10.0)
            assert status["state"] == "failed"
            again = client.submit([1])
            assert again["job_id"] == submitted["job_id"]
            assert not again["deduplicated"]  # revived, not coalesced
            status = client.wait(submitted["job_id"], timeout=10.0)
            assert status["state"] == "done"

    def test_cancel_queued_job(self):
        gate = threading.Event()

        def blocking_runner(request):
            gate.wait(20.0)
            return {}

        svc = PlanningService(port=0, dispatchers=1, runner=blocking_runner)
        with svc:
            client = ServiceClient(port=svc.port)
            first = client.submit([1], separation_factor=10.0)
            assert wait_for(
                lambda: client.status(first["job_id"])["state"] == "running"
            )
            second = client.submit([1], separation_factor=11.0)
            cancelled = client.cancel(second["job_id"])
            assert cancelled["state"] == "cancelled"
            status, _, _ = client._request(
                "GET", f"/v1/jobs/{second['job_id']}/result"
            )
            assert status == 410
            # Running jobs cannot be cancelled.
            with pytest.raises(ServiceError, match="409"):
                client.cancel(first["job_id"])
            gate.set()

    def test_timed_out_job_does_not_hold_up_exit(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        start = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-c", TIMED_OUT_JOB_SCRIPT],
            capture_output=True, text=True, timeout=60, env=env,
        )
        elapsed = time.monotonic() - start
        assert result.returncode == 0, result.stderr[-2000:]
        # The abandoned attempt is still sleeping; exit must not wait.
        assert elapsed < 10.0


class TestGracefulShutdown:
    def test_drain_rejects_new_and_finishes_running(self):
        gate = threading.Event()

        def blocking_runner(request):
            gate.wait(20.0)
            return {"done": True}

        svc = PlanningService(port=0, dispatchers=1, runner=blocking_runner)
        svc.start()
        client = ServiceClient(port=svc.port)
        running = client.submit([1], separation_factor=10.0)
        assert wait_for(
            lambda: client.status(running["job_id"])["state"] == "running"
        )
        queued = client.submit([1], separation_factor=11.0)

        svc.drain()
        health = client.healthz()
        assert health["status"] == "draining"
        assert health["http_status"] == 503
        status, _, data = client._request(
            "POST", "/v1/plan", {"scenario_ids": [1], "separation_factor": 12.0}
        )
        assert status == 503
        assert "draining" in json.loads(data)["error"]

        gate.set()
        svc.stop(drain=True)
        # Both the running job and the queued backlog were drained.
        assert svc.queue.get(running["job_id"]).state == "done"
        assert svc.queue.get(queued["job_id"]).state == "done"

    def test_stop_without_drain_cancels_backlog(self):
        gate = threading.Event()

        def blocking_runner(request):
            gate.wait(20.0)
            return {"done": True}

        svc = PlanningService(port=0, dispatchers=1, runner=blocking_runner)
        svc.start()
        client = ServiceClient(port=svc.port)
        running = client.submit([1], separation_factor=10.0)
        assert wait_for(
            lambda: client.status(running["job_id"])["state"] == "running"
        )
        queued = client.submit([1], separation_factor=11.0)
        gate.set()
        svc.stop(drain=False)
        assert svc.queue.get(running["job_id"]).state == "done"
        assert svc.queue.get(queued["job_id"]).state == "cancelled"

    def test_client_error_when_server_gone(self):
        svc = PlanningService(port=0, dispatchers=1, runner=echo_runner)
        svc.start()
        port = svc.port
        svc.stop()
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient(port=port, timeout=1.0).healthz()


class TestIntrospection:
    def test_healthz_ok(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["http_status"] == 200
        assert health["dispatchers"] == 2
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }

    def test_metrics_snapshot(self, client):
        submitted = client.submit([1], separation_factor=21.0)
        client.wait(submitted["job_id"], timeout=10.0)
        metrics = client.metrics()
        assert metrics["service.jobs.solved"]["value"] >= 1
        assert metrics["service.http.plan.latency_s"]["count"] >= 1
        assert metrics["service.job_duration_s"]["kind"] == "histogram"
        assert metrics["service.queue.depth"]["kind"] == "gauge"

    def test_tracez_span_tree(self, client):
        submitted = client.submit([1], separation_factor=22.0)
        client.wait(submitted["job_id"], timeout=10.0)
        trace = client.tracez()
        names = {record["name"] for record in trace["spans"]}
        # The per-request span tree promised by the service.
        assert {
            "service.request",
            "service.admission",
            "service.job",
            "service.queue_wait",
            "service.solve",
            "service.serialize",
        } <= names
        job_spans = [r for r in trace["spans"] if r["name"] == "service.job"]
        assert any(
            record["attributes"].get("job_id") == submitted["job_id"]
            for record in job_spans
        )

    def test_runner_spans_nest_under_service_solve(self):
        def traced_runner(request):
            with span("runner.work"):
                time.sleep(0.01)
            return {"ok": True}

        with PlanningService(port=0, dispatchers=1, runner=traced_runner) as svc:
            client = ServiceClient(port=svc.port)
            submitted = client.submit([1])
            client.wait(submitted["job_id"], timeout=10.0)
            spans = client.tracez()["spans"]
        by_id = {record["span_id"]: record for record in spans}
        (work,) = [r for r in spans if r["name"] == "runner.work"]
        ancestors = []
        parent_id = work["parent_id"]
        while parent_id is not None:
            ancestors.append(by_id[parent_id]["name"])
            parent_id = by_id[parent_id]["parent_id"]
        assert ancestors == ["service.solve", "service.job"]
        # One clock: the runner's span starts inside the solve span.
        solve = by_id[work["parent_id"]]
        assert solve["t_start"] <= work["t_start"]
        assert work["t_start"] <= solve["t_start"] + solve["duration_s"]
        assert "task_index" not in work["attributes"]

    def test_per_endpoint_latency_histograms(self, client):
        client.healthz()
        client.tracez()
        client.metrics()  # its own latency lands after the snapshot
        metrics = client.metrics()
        for label in ("healthz", "tracez", "metrics"):
            assert metrics[f"service.http.{label}.latency_s"]["count"] >= 1
