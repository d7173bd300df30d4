"""End-to-end acceptance tests: the service against the real harness.

Two contracts from the service issue are verified here:

* a plan fetched through the service is **byte-identical** to the same
  scenario run directly through :mod:`repro.experiments.harness`
  (same request knobs, same canonical serialisation), and
* 16 concurrent submissions of 4 distinct scenarios complete with
  exactly 4 solves - deduplication collapses the other 12 - with the
  counts read back from ``/metrics``, plus cross-job disk-map cache
  hits through the shared service cache.

Small knobs keep the solves test-sized; the pipeline is still the full
planner (triangulation, harmonic maps, rotation search, Lloyd).
"""

import threading

import pytest

from repro.experiments import get_scenario, run_scenarios
from repro.io import dumps_canonical, plan_document, scenario_run_from_dict
from repro.service import PlanningService, ServiceClient

KW = dict(foi_target_points=200, lloyd_grid_target=600, resolution=12)
METHODS = ["ours (a)", "Hungarian"]


@pytest.fixture(scope="module")
def service():
    with PlanningService(port=0, dispatchers=2, capacity=32) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(port=service.port, timeout=60.0)


def metric_value(metrics, name, field="value"):
    payload = metrics.get(name)
    return payload.get(field, 0) if payload else 0


class TestByteIdentity:
    def test_service_result_matches_direct_harness_run(self, client):
        submitted = client.submit(
            [1], separation_factor=12.0, methods=METHODS, **KW
        )
        status = client.wait(submitted["job_id"], timeout=600.0, poll_s=0.2)
        assert status["state"] == "done", status.get("error")
        served = client.result_bytes(submitted["job_id"])

        direct = run_scenarios(
            [get_scenario(1)],
            separation_factor=12.0,
            methods=tuple(METHODS),
            workers=1,
            **KW,
        )
        assert served == dumps_canonical(plan_document(direct))

    def test_round_trip_through_document(self, client):
        submitted = client.submit(
            [1], separation_factor=12.0, methods=METHODS, **KW
        )
        client.wait(submitted["job_id"], timeout=600.0, poll_s=0.2)
        document = client.result(submitted["job_id"])
        run = scenario_run_from_dict(document["runs"]["1"])
        assert run.scenario_id == 1
        assert set(run.evaluations) == set(METHODS)
        assert run.evaluations["ours (a)"].final_positions.shape[1] == 2

    def test_warm_cache_serves_second_job(self, client):
        """A new job differing only in metric resolution reuses every
        disk-map entry from the module's earlier solves."""
        before = client.metrics()
        submitted = client.submit(
            [1], separation_factor=12.0, methods=METHODS,
            foi_target_points=KW["foi_target_points"],
            lloyd_grid_target=KW["lloyd_grid_target"],
            resolution=16,
        )
        status = client.wait(submitted["job_id"], timeout=600.0, poll_s=0.2)
        assert status["state"] == "done", status.get("error")
        after = client.metrics()
        hits = (
            metric_value(after, "cache.harmonic.diskmap.hits")
            - metric_value(before, "cache.harmonic.diskmap.hits")
        )
        misses = (
            metric_value(after, "cache.harmonic.diskmap.misses")
            - metric_value(before, "cache.harmonic.diskmap.misses")
        )
        assert hits >= 1
        assert misses == 0


class TestConcurrentDeduplication:
    def test_16_submissions_4_scenarios_exactly_4_solves(self, client):
        scenario_ids = (1, 2, 4, 5)
        before = client.metrics()

        job_ids = []
        errors = []
        lock = threading.Lock()

        def submit(sid):
            try:
                submitted = client.submit(
                    [sid],
                    separation_factor=10.0,
                    methods=["Hungarian"],
                    foi_target_points=200,
                    lloyd_grid_target=600,
                    resolution=8,
                )
                with lock:
                    job_ids.append(submitted["job_id"])
            except Exception as exc:  # surfaced after the join
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(scenario_ids[i % 4],))
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        assert len(job_ids) == 16
        assert len(set(job_ids)) == 4  # identical requests coalesced

        for job_id in set(job_ids):
            status = client.wait(job_id, timeout=600.0, poll_s=0.2)
            assert status["state"] == "done", status.get("error")

        after = client.metrics()
        solved = (
            metric_value(after, "service.jobs.solved")
            - metric_value(before, "service.jobs.solved")
        )
        deduplicated = (
            metric_value(after, "service.jobs.deduplicated")
            - metric_value(before, "service.jobs.deduplicated")
        )
        accepted = (
            metric_value(after, "service.jobs.accepted")
            - metric_value(before, "service.jobs.accepted")
        )
        assert solved == 4
        assert deduplicated == 12
        assert accepted == 4


class TestSecondServiceE2E:
    """The same dedup contract on a second, fresh service.

    Runs last in the module so the shared service cache is warm: the
    fresh service re-solves the 16-submission matrix through real
    planners but every disk-map entry is already present, keeping this
    test-sized.
    """

    def test_16_submissions_on_a_fresh_service_exactly_4_solves(self, service):
        with PlanningService(
            port=0,
            dispatchers=2,
            capacity=32,
            cache=service.cache,
        ) as fresh:
            client = ServiceClient(port=fresh.port, timeout=60.0)
            first = ServiceClient(port=service.port, timeout=60.0)
            scenario_ids = (1, 2, 4, 5)
            before = client.metrics()

            job_ids = []
            errors = []
            lock = threading.Lock()

            def submit(sid):
                try:
                    submitted = client.submit(
                        [sid],
                        separation_factor=10.0,
                        methods=["Hungarian"],
                        foi_target_points=200,
                        lloyd_grid_target=600,
                        resolution=8,
                    )
                    with lock:
                        job_ids.append(submitted["job_id"])
                        assert "shard" not in submitted
                except Exception as exc:
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(scenario_ids[i % 4],))
                for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors, errors
            assert len(job_ids) == 16
            assert len(set(job_ids)) == 4

            for job_id in set(job_ids):
                status = client.wait(job_id, timeout=600.0, poll_s=0.2)
                assert status["state"] == "done", status.get("error")

            after = client.metrics()
            for name, expected in (
                ("service.jobs.solved", 4),
                ("service.jobs.deduplicated", 12),
                ("service.jobs.accepted", 4),
            ):
                delta = (
                    metric_value(after, name) - metric_value(before, name)
                )
                assert delta == expected, name

            # The fresh service's results are byte-identical to the
            # first service's for the same requests.
            for job_id in set(job_ids):
                fresh_bytes = client.result_bytes(job_id)
                request = client.status(job_id)["request"]
                resubmitted = first.submit(
                    request["scenario_ids"],
                    separation_factor=10.0,
                    methods=["Hungarian"],
                    foi_target_points=200,
                    lloyd_grid_target=600,
                    resolution=8,
                )
                assert resubmitted["job_id"] == job_id
                first.wait(job_id, timeout=600.0, poll_s=0.2)
                assert first.result_bytes(job_id) == fresh_bytes

            health = client.healthz()
            assert health["dispatchers"] == 2
            assert "shards" not in health and "service_workers" not in health
            listed = client.jobs()["jobs"]
            assert {job["job_id"] for job in listed} == set(job_ids)
            assert all("shard" not in job for job in listed)
