"""Service-side mission jobs: POST /v1/mission, SSE streaming, resume.

The contract under test: a fixed-seed mission run through the service
produces a result document byte-identical to the in-process
:class:`~repro.missions.MissionRunner` run, its SSE stream delivers
``epoch``/``plan_diff`` events in order, and the client's
``iter_events`` survives a mid-stream disconnect by resuming from the
last-seen sequence number (the server honours ``?since=``).
"""

import http.client
import json

import pytest

from repro.errors import ServiceError
from repro.io import dumps_canonical
from repro.missions import MissionConfig, MissionRunner, MissionSpec
from repro.service import PlanningService, ServiceClient
from repro.service.jobs import job_id_for, normalize_mission_request
from repro.service.server import _since_param

FAST = MissionConfig(
    foi_target_points=100,
    grid_target=300,
    lloyd_max_iterations=6,
    resolution=4,
)

SPEC = MissionSpec(family="corridor", seed=0, epochs=2, motion="drift")


@pytest.fixture(scope="module")
def local_doc():
    return MissionRunner(SPEC, FAST).run()


@pytest.fixture(scope="module")
def service():
    svc = PlanningService(port=0, dispatchers=2, capacity=16)
    svc.events_poll_s = 0.01
    with svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(port=service.port, timeout=120.0, retries=3)


class TestNormalize:
    def test_round_trips_spec_config_faults(self):
        request, priority = normalize_mission_request({
            "spec": SPEC.to_dict(),
            "config": FAST.to_dict(),
            "priority": 2,
        })
        assert priority == 2
        assert request["kind"] == "mission"
        assert request["spec"] == SPEC.to_dict()
        assert request["config"] == FAST.to_dict()
        assert request["faults"] is None

    def test_requires_spec(self):
        with pytest.raises(ServiceError, match="needs a 'spec'"):
            normalize_mission_request({"config": {}})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            normalize_mission_request({"spec": SPEC.to_dict(), "oops": 1})

    def test_rejects_bad_spec(self):
        with pytest.raises(ServiceError, match="invalid mission request"):
            normalize_mission_request({
                "spec": {"family": "corridor", "motion": "teleport"}
            })

    def test_mission_ids_disjoint_from_plan_ids(self):
        request, _ = normalize_mission_request({"spec": SPEC.to_dict()})
        stripped = {k: v for k, v in request.items() if k != "kind"}
        assert job_id_for(request) != job_id_for(stripped)


class TestSinceParam:
    @pytest.mark.parametrize("query,expected", [
        ("", 0),
        ("since=5", 5),
        ("since=0", 0),
        ("since=-3", 0),
        ("since=nope", 0),
        ("foo=1&since=7&bar=2", 7),
    ])
    def test_parse(self, query, expected):
        assert _since_param(query) == expected


class TestMissionJobs:
    def test_service_is_byte_identical_to_in_process(
        self, service, client, local_doc
    ):
        events = []
        doc = client.run_mission(
            SPEC, config=FAST, on_event=events.append
        )
        assert dumps_canonical(doc) == dumps_canonical(local_doc)

        kinds = [e["kind"] for e in events]
        # Ordered epoch stream: plan_diff precedes its epoch, epochs
        # ascend, and the stream terminates.
        assert kinds.count("epoch") == SPEC.epochs
        assert kinds.count("plan_diff") == SPEC.epochs
        pairs = [
            (e.get("epoch"), e["kind"])
            for e in events
            if e["kind"] in ("epoch", "plan_diff")
        ]
        assert pairs == [(0, "plan_diff"), (0, "epoch"),
                         (1, "plan_diff"), (1, "epoch")]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert kinds[-1] == "end"

    def test_resubmit_deduplicates(self, service, client, local_doc):
        first = client.submit_mission(SPEC, config=FAST)
        again = client.submit_mission(SPEC, config=FAST)
        assert again["job_id"] == first["job_id"]
        assert again["deduplicated"]
        client.wait(first["job_id"], timeout=120.0)
        assert client.result_bytes(first["job_id"]) == dumps_canonical(
            local_doc
        )

    def test_server_honours_since_cursor(self, service, client):
        sub = client.submit_mission(SPEC, config=FAST)
        client.wait(sub["job_id"], timeout=120.0)
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30.0
        )
        try:
            conn.request("GET", f"/v1/jobs/{sub['job_id']}/events?since=3")
            response = conn.getresponse()
            assert response.status == 200
            first_id = None
            while True:
                line = response.readline().decode().strip()
                if line.startswith("id:"):
                    first_id = int(line.partition(":")[2])
                    break
            assert first_id == 3
        finally:
            conn.close()

    def test_client_resumes_after_mid_stream_disconnect(
        self, service, client, local_doc
    ):
        spec = MissionSpec(
            family="corridor", seed=1, epochs=2, motion="drift"
        )
        opens = {"count": 0}
        real_open = client._open_events

        class Chopped:
            """Response wrapper that dies after a few reads."""

            def __init__(self, response, limit):
                self._response = response
                self._limit = limit
                self._reads = 0

            def readline(self):
                self._reads += 1
                if self._limit is not None and self._reads > self._limit:
                    raise OSError("injected mid-stream disconnect")
                return self._response.readline()

            def __getattr__(self, name):
                return getattr(self._response, name)

        def chopped_open(job_id, since, timeout):
            opens["count"] += 1
            conn, response = real_open(job_id, since, timeout)
            limit = 8 if opens["count"] == 1 else None
            return conn, Chopped(response, limit)

        client._open_events = chopped_open
        sub = client.submit_mission(spec, config=FAST)
        events = list(client.iter_events(sub["job_id"], timeout=120.0))
        assert opens["count"] >= 2  # the injected cut forced a reconnect
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs))  # no duplicates, no gaps skipped
        assert seqs == list(range(seqs[0], seqs[-1] + 1))
        assert [e["kind"] for e in events][-1] == "end"
        kinds = [e["kind"] for e in events]
        assert kinds.count("epoch") == spec.epochs

    def test_stalled_stream_exhausts_retry_budget(self, service):
        bounded = ServiceClient(
            port=service.port, timeout=30.0, retries=1
        )
        sub = bounded.submit_mission(SPEC, config=FAST)
        bounded.wait(sub["job_id"], timeout=120.0)

        def always_dies(job_id, since, timeout):
            conn, response = ServiceClient._open_events(
                bounded, job_id, since, timeout
            )

            class Dead:
                def readline(self):
                    raise OSError("wire cut")

                def __getattr__(self, name):
                    return getattr(response, name)

            return conn, Dead()

        bounded._open_events = always_dies
        with pytest.raises(ServiceError, match="stalled"):
            list(bounded.iter_events(sub["job_id"], timeout=30.0))

    def test_http_endpoint_rejects_malformed_body(self, service, client):
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30.0
        )
        try:
            body = b"{not json"
            conn.request("POST", "/v1/mission", body=body, headers={
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
            })
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_http_endpoint_rejects_bad_spec(self, service, client):
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30.0
        )
        try:
            body = json.dumps({"spec": {"family": "nowhere"}}).encode()
            conn.request("POST", "/v1/mission", body=body, headers={
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
            })
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid mission request" in response.read()
        finally:
            conn.close()
