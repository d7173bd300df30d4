"""Tests for the seeded open-loop load generator.

Determinism is the product here: the schedule must be a pure function
of the config, the canonical summary must be byte-identical across
repeated runs *and* across services with different dispatcher counts,
and the correctness checks (dedup exactness, zero 5xx, Retry-After)
must actually be able to fail - the 429 test drives a deliberately
undersized service into overload and watches the contract hold.
"""

import time

import pytest

from repro.errors import ServiceError
from repro.experiments.loadgen import (
    LoadgenConfig,
    build_schedule,
    loadgen_passed,
    render_loadgen,
    run_loadgen,
    run_loadgen_fleet,
    summary_bytes,
)
from repro.service import PlanningService
from repro.service.jobs import job_id_for


def echo_runner(request):
    time.sleep(0.005)
    return {"echo": request, "format_version": 1}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ServiceError):
            LoadgenConfig(clients=0)
        with pytest.raises(ServiceError):
            LoadgenConfig(duplicate_fraction=1.0)
        with pytest.raises(ServiceError):
            LoadgenConfig(arrival_rate_hz=0.0)
        with pytest.raises(ServiceError):
            LoadgenConfig(families=("nope",))

    def test_to_dict_excludes_client_behaviour_knobs(self):
        doc = LoadgenConfig().to_dict()
        assert "retries" not in doc
        assert "max_inflight" not in doc
        assert "timeout_s" not in doc


class TestSchedule:
    def test_deterministic_for_a_seed(self):
        config = LoadgenConfig(clients=100, seed=3)
        assert build_schedule(config) == build_schedule(config)

    def test_different_seed_different_traffic(self):
        a = build_schedule(LoadgenConfig(clients=100, seed=0))
        b = build_schedule(LoadgenConfig(clients=100, seed=1))
        assert {e["job_id"] for e in a} != {e["job_id"] for e in b}

    def test_unique_pool_size_is_exact(self):
        config = LoadgenConfig(clients=100, duplicate_fraction=0.75)
        schedule = build_schedule(config)
        assert len(schedule) == 100
        assert len({e["job_id"] for e in schedule}) == 25

    def test_zero_duplicates_every_request_unique(self):
        config = LoadgenConfig(clients=40, duplicate_fraction=0.0)
        schedule = build_schedule(config)
        assert len({e["job_id"] for e in schedule}) == 40

    def test_arrival_times_monotonic(self):
        schedule = build_schedule(LoadgenConfig(clients=50))
        times = [e["t"] for e in schedule]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_job_ids_are_content_addresses(self):
        for entry in build_schedule(LoadgenConfig(clients=20)):
            assert entry["job_id"] == job_id_for(entry["request"])

    def test_families_cycle_through_the_mix(self):
        config = LoadgenConfig(clients=40, duplicate_fraction=0.0)
        families = {e["family"] for e in build_schedule(config)}
        assert families == set(config.families)

    def test_stream_every_marks_the_cohort(self):
        config = LoadgenConfig(clients=30, stream_every=10)
        schedule = build_schedule(config)
        assert sum(1 for e in schedule if e["stream"]) == 3


class TestAgainstFleet:
    CFG = dict(
        clients=60,
        duplicate_fraction=0.6,
        arrival_rate_hz=500.0,
        seed=11,
        stream_every=15,
        timeout_s=60.0,
    )

    def test_all_checks_pass_and_dedup_is_exact(self):
        summary = run_loadgen_fleet(
            LoadgenConfig(**self.CFG), runner=echo_runner
        )
        canonical = summary["canonical"]
        assert canonical["dedup_exact"]
        assert canonical["dedup_hits"] == (
            canonical["clients"] - canonical["uniques"]
        )
        assert canonical["jobs_created"] == canonical["uniques"]
        assert canonical["zero_5xx"]
        assert canonical["results_byte_identical"]
        assert canonical["all_clients_completed"]
        assert summary["drain"]["draining_announced"]
        assert summary["drain"]["rejects_new_work"]
        assert summary["timing"]["streamed_events"] > 0
        assert loadgen_passed(summary)

    def test_byte_identical_across_runs_and_worker_counts(self):
        config = LoadgenConfig(**self.CFG)
        runs = [
            run_loadgen_fleet(config, dispatchers=n, runner=echo_runner)
            for n in (1, 2, 1)
        ]
        payloads = {summary_bytes(s) for s in runs}
        assert len(payloads) == 1

    def test_429_under_overload_is_correct_not_fatal(self):
        config = LoadgenConfig(
            clients=12,
            duplicate_fraction=0.0,
            arrival_rate_hz=1000.0,
            seed=5,
            timeout_s=60.0,
        )

        def slow_runner(request):
            time.sleep(0.25)
            return {"echo": request, "format_version": 1}

        summary = run_loadgen_fleet(
            config,
            dispatchers=1,
            capacity=3,
            runner=slow_runner,
        )
        assert summary["timing"]["rejected_429"] > 0
        assert summary["canonical"]["retry_after_correct"]
        assert summary["canonical"]["zero_5xx"]
        assert summary["canonical"]["all_clients_completed"]
        assert loadgen_passed(summary)

    def test_1000_concurrent_clients_against_one_queue(self):
        """The acceptance-criterion scale: >=1000 clients, one job queue.

        The planner is swapped for a deterministic echo runner so the
        test exercises the serving stack (admission, dedup,
        backpressure, result fan-out) at full scale without paying for
        1000 real solves.
        """
        config = LoadgenConfig(
            clients=1000,
            duplicate_fraction=0.9,
            arrival_rate_hz=2000.0,
            seed=7,
            stream_every=100,
            timeout_s=120.0,
        )
        summary = run_loadgen_fleet(config, runner=echo_runner)
        canonical = summary["canonical"]
        assert canonical["clients"] == 1000
        assert canonical["uniques"] == 100
        assert canonical["dedup_hits"] == 900
        assert canonical["dedup_exact"]
        assert canonical["zero_5xx"]
        assert canonical["retry_after_correct"]
        assert canonical["all_clients_completed"]
        assert canonical["results_byte_identical"]
        assert loadgen_passed(summary)

    def test_attach_mode_against_running_service(self):
        config = LoadgenConfig(
            clients=20, duplicate_fraction=0.5, seed=2, timeout_s=30.0
        )
        with PlanningService(
            port=0, dispatchers=2, runner=echo_runner
        ) as svc:
            summary = run_loadgen(config, port=svc.port)
        assert summary["canonical"]["dedup_exact"]
        assert "drain" not in summary
        assert loadgen_passed(summary)


class TestRendering:
    def test_render_and_canonical_bytes(self):
        summary = run_loadgen_fleet(
            LoadgenConfig(clients=15, seed=1, timeout_s=30.0),
            runner=echo_runner,
        )
        text = render_loadgen(summary)
        assert "loadgen: 15 clients" in text
        assert "p99 ms" in text
        assert "canonical digest" in text
        assert b"timing" not in summary_bytes(summary)
        assert b"canonical" in summary_bytes(summary)


class TestCli:
    def test_loadgen_attach_mode_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        with PlanningService(
            port=0, dispatchers=2, runner=echo_runner
        ) as svc:
            out = tmp_path / "load.json"
            code = main([
                "loadgen",
                "--port", str(svc.port),
                "--clients", "16",
                "--seed", "4",
                "--output", str(out),
            ])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "[ok] dedup exact" in captured
