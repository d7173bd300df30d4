"""Failure-path tests for the SSE job-progress streaming endpoint.

The streaming contract: every stream - happy, replayed, disconnected,
throttled or cut down by shutdown - must terminate cleanly, detach
itself from the service's stream registry (``/healthz`` shows zero
``active_streams``), and leave behind a ``service.events`` tracer span
recording its outcome.  No orphaned asyncio tasks, ever.
"""

import socket
import threading
import time

import pytest

from repro.service import PlanningService, ServiceClient


def make_gate_runner(gate):
    """Runner that blocks until the test releases the gate."""

    def runner(request):
        gate.wait(timeout=30.0)
        return {"echo": request["scenario_ids"], "format_version": 1}

    return runner


@pytest.fixture
def gate():
    return threading.Event()


@pytest.fixture
def service(gate):
    svc = PlanningService(
        port=0,
        dispatchers=2,
        capacity=8,
        runner=make_gate_runner(gate),
    )
    svc.events_poll_s = 0.01
    svc.events_keepalive_s = 0.05
    with svc:
        yield svc
    gate.set()  # never leave a dispatcher blocked after a failed test


@pytest.fixture
def client(service):
    return ServiceClient(port=service.port, timeout=15.0)


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def events_spans(service):
    return [
        r for r in service.tracer.get_trace() if r.name == "service.events"
    ]


def raw_stream_socket(service, job_id):
    """A raw socket with the SSE request sent and headers consumed."""
    sock = socket.create_connection(("127.0.0.1", service.port), timeout=10.0)
    sock.sendall(
        f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
        f"Host: localhost\r\nConnection: close\r\n\r\n".encode()
    )
    buffered = b""
    while b"\r\n\r\n" not in buffered:
        chunk = sock.recv(4096)
        assert chunk, "server closed before sending headers"
        buffered += chunk
    head, _, rest = buffered.partition(b"\r\n\r\n")
    assert b"200 OK" in head.split(b"\r\n", 1)[0]
    assert b"text/event-stream" in head
    return sock, rest


class TestHappyPath:
    def test_full_lifecycle_stream(self, service, client, gate):
        submitted = client.submit([1], separation_factor=5.0)
        gate.set()
        events = list(client.iter_events(submitted["job_id"]))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert "claimed" in kinds
        assert kinds.count("phase") == 2  # solve + serialize
        assert kinds[-2:] == ["done", "end"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        claimed = next(e for e in events if e["kind"] == "claimed")
        # One job queue: neither the 202 body nor the claim names a shard.
        assert set(claimed) == {"seq", "kind", "queue_wait_s"}
        assert set(submitted) == {"job_id", "state", "deduplicated"}
        assert claimed["queue_wait_s"] >= 0.0
        solve = next(e for e in events if e.get("phase") == "solve")
        assert solve["duration_s"] > 0.0

    def test_finished_job_replays_full_history(self, service, client, gate):
        gate.set()
        submitted = client.submit([2], separation_factor=5.0)
        client.wait(submitted["job_id"], timeout=15.0)
        events = list(client.iter_events(submitted["job_id"]))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-2:] == ["done", "end"]

    def test_unknown_job_is_404(self, service, client):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="404"):
            list(client.iter_events("no-such-job"))

    def test_plan_path_alias(self, service, client, gate):
        gate.set()
        submitted = client.submit([3], separation_factor=5.0)
        client.wait(submitted["job_id"], timeout=15.0)
        sock = socket.create_connection(
            ("127.0.0.1", service.port), timeout=10.0
        )
        sock.sendall(
            f"GET /v1/plan/{submitted['job_id']}/events HTTP/1.1\r\n\r\n"
            .encode()
        )
        data = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
        sock.close()
        assert b"event: end" in data

    def test_stream_completion_leaves_no_registered_task(
        self, service, client, gate
    ):
        gate.set()
        submitted = client.submit([4], separation_factor=5.0)
        list(client.iter_events(submitted["job_id"]))
        assert wait_for(lambda: not service._streams)
        assert client.healthz()["active_streams"] == 0
        spans = events_spans(service)
        assert spans and spans[-1].attributes["outcome"] == "complete"


class TestClientDisconnectMidStream:
    def test_disconnect_detected_and_stream_detached(
        self, service, client, gate
    ):
        submitted = client.submit([1], separation_factor=6.0)
        job_id = submitted["job_id"]
        sock, _ = raw_stream_socket(service, job_id)
        assert wait_for(lambda: len(service._streams) == 1)
        assert client.healthz()["active_streams"] == 1
        # Hard close while the job is still running: the server only
        # has keepalives to notice with.
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            __import__("struct").pack("ii", 1, 0),  # RST on close
        )
        sock.close()
        assert wait_for(lambda: not service._streams)
        assert client.healthz()["active_streams"] == 0
        spans = events_spans(service)
        assert spans
        assert spans[-1].attributes["outcome"] == "disconnect"
        assert spans[-1].attributes["job_id"] == job_id
        gate.set()
        client.wait(job_id, timeout=15.0)  # the job itself is unharmed

    def test_keepalives_flow_while_job_is_idle(self, service, client, gate):
        submitted = client.submit([2], separation_factor=6.0)
        sock, buffered = raw_stream_socket(service, submitted["job_id"])
        deadline = time.monotonic() + 5.0
        while (
            buffered.count(b": keepalive") < 2
            and time.monotonic() < deadline
        ):
            buffered += sock.recv(4096)
        sock.close()
        assert buffered.count(b": keepalive") >= 2
        gate.set()


class TestSlowConsumer:
    def test_unread_backlog_times_out_and_detaches(
        self, service, client, gate
    ):
        service.events_drain_timeout_s = 0.2
        submitted = client.submit([3], separation_factor=6.0)
        job_id = submitted["job_id"]
        sock, _ = raw_stream_socket(service, job_id)
        assert wait_for(lambda: len(service._streams) == 1)
        # Flood the stream while the consumer reads nothing: once the
        # kernel buffers fill, the server's drain deadline must fire.
        queue = service.queue
        blob = "x" * 8192
        for _ in range(2048):
            if not service._streams:
                break
            queue.publish(job_id, "progress", blob=blob)
            time.sleep(0.0005)
        assert wait_for(lambda: not service._streams)
        spans = events_spans(service)
        assert spans
        assert spans[-1].attributes["outcome"] == "slow_consumer"
        sock.close()
        gate.set()
        client.wait(job_id, timeout=15.0)  # the job itself is unharmed


class TestDrainAndShutdownMidStream:
    def test_drain_announcement_then_clean_end(self, service, client, gate):
        submitted = client.submit([4], separation_factor=6.0)
        job_id = submitted["job_id"]
        collected = []
        done = threading.Event()

        def consume():
            for event in client.iter_events(job_id):
                collected.append(event)
            done.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        assert wait_for(lambda: len(service._streams) == 1)
        service.drain()
        assert wait_for(
            lambda: any(e["kind"] == "draining" for e in collected)
        )
        gate.set()
        assert done.wait(timeout=15.0)
        kinds = [e["kind"] for e in collected]
        assert kinds[-2:] == ["done", "end"]
        assert wait_for(lambda: not service._streams)

    def test_shutdown_cancels_attached_stream_no_orphans(self, gate):
        """stop() while a consumer is attached to a never-finishing job
        must cancel the stream task and record a shutdown outcome."""
        svc = PlanningService(
            port=0,
            dispatchers=1,
            capacity=8,
            runner=make_gate_runner(gate),
        )
        svc.events_poll_s = 0.01
        svc.start()
        try:
            client = ServiceClient(port=svc.port, timeout=15.0)
            submitted = client.submit([5], separation_factor=6.0)
            sock, _ = raw_stream_socket(svc, submitted["job_id"])
            assert wait_for(lambda: len(svc._streams) == 1)
            # Dispatcher is wedged in the runner; a short join timeout
            # lets stop() proceed to the asyncio shutdown, which must
            # cancel the attached stream.
            svc.stop(drain=False, timeout=0.2)
            assert svc._streams == set()
            spans = events_spans(svc)
            assert spans
            assert spans[-1].attributes["outcome"] in (
                "shutdown",
                "complete",  # the cancel raced a cancelled-job end frame
            )
            sock.close()
        finally:
            gate.set()
            svc.stop()
