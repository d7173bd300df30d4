"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_args(self):
        args = build_parser().parse_args(["scenario", "3", "--separation", "15"])
        assert args.scenario_id == 3
        assert args.separation == 15.0

    def test_scenario_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "9"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "1"])
        assert args.separations == [10.0, 40.0, 70.0, 100.0]
        assert args.figures is None

    def test_mission_defaults(self):
        args = build_parser().parse_args(["mission"])
        assert args.families is None
        assert args.motions is None
        assert args.epochs == 3
        assert args.seeds == 1
        assert args.method == "a"
        assert args.advance_fraction == 0.5

    def test_mission_args(self):
        args = build_parser().parse_args([
            "mission", "--families", "corridor", "annulus",
            "--motions", "drift", "--seed-list", "3", "7",
            "--epochs", "2", "--workers", "2", "--output", "m.json",
        ])
        assert args.families == ["corridor", "annulus"]
        assert args.motions == ["drift"]
        assert args.seed_list == [3, 7]
        assert args.epochs == 2
        assert args.workers == 2
        assert args.output == "m.json"

    def test_report_missions_flags(self):
        args = build_parser().parse_args([
            "report", "--missions", "--mission-seeds", "2",
            "--mission-epochs", "4",
        ])
        assert args.missions
        assert args.mission_seeds == 2
        assert args.mission_epochs == 4


class TestCommands:
    def test_lemmas_command(self, capsys):
        assert main(["lemmas"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 1" in out
        assert "Lemma 2" in out

    def test_scenario_command(self, capsys):
        code = main(["scenario", "1", "--separation", "12", "--points", "220"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ours (a)" in out
        assert "Hungarian" in out

    def test_sweep_with_figures(self, capsys, tmp_path):
        code = main([
            "sweep", "1",
            "--separations", "12", "30",
            "--figures", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario 1" in out
        assert (tmp_path / "scenario1_distance_ratio.svg").exists()
        assert (tmp_path / "scenario1_stable_links.svg").exists()


class TestEmptyMatrix:
    """A campaign with zero cells proves nothing: typed error, exit 2."""

    def test_mission_without_seeds_exits_2(self, capsys):
        assert main(["mission", "--seeds", "0"]) == 2
        assert "empty mission matrix" in capsys.readouterr().err

    def test_zoo_without_seeds_exits_2(self, capsys):
        assert main(["zoo", "--seeds", "0", "--families", "corridor"]) == 2
        assert "empty zoo matrix" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestServiceParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.capacity == 64
        assert args.job_timeout is None
        assert args.retries == 1
        assert args.ttl == 3600.0
        # serve inherits the common --trace and parallel --workers knobs.
        assert args.trace is None
        assert args.workers is None

    def test_serve_trace_flag(self):
        args = build_parser().parse_args(["serve", "--trace", "out.jsonl"])
        assert args.trace == "out.jsonl"

    def test_submit_args(self):
        args = build_parser().parse_args([
            "submit", "1", "2", "--separation", "12",
            "--methods", "Hungarian", "--priority", "3", "--no-wait",
        ])
        assert args.scenario_ids == [1, 2]
        assert args.separation == 12.0
        assert args.methods == ["Hungarian"]
        assert args.priority == 3
        assert args.no_wait

    def test_submit_scenario_ids_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "9"])


class _StubService:
    """Captures the kwargs `repro serve` builds its service from."""

    instances = []

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.host = kwargs.get("host", "127.0.0.1")
        self.port = 12345
        _StubService.instances.append(self)

    def start(self):
        pass

    def wait(self, timeout=None):
        pass

    def stop(self, drain=True):
        pass


class TestServeCommand:
    @pytest.fixture(autouse=True)
    def stub_service(self, monkeypatch):
        import repro.service

        _StubService.instances.clear()
        monkeypatch.setattr(repro.service, "PlanningService", _StubService)

    def test_serve_announces_endpoint(self, capsys):
        assert main(["serve", "--port", "0", "--capacity", "7"]) == 0
        out = capsys.readouterr().out
        assert "listening on http://127.0.0.1:12345" in out
        (stub,) = _StubService.instances
        assert stub.kwargs["capacity"] == 7
        assert stub.kwargs["tracer"] is None  # no --trace

    def test_serve_trace_streams_server_spans(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        assert main(["serve", "--port", "0", "--trace", str(trace)]) == 0
        (stub,) = _StubService.instances
        tracer = stub.kwargs["tracer"]
        assert tracer is not None and tracer.enabled
        # The traced run flushed its metrics snapshot to the sink.
        assert trace.exists()

    def test_serve_workers_set_dispatchers(self):
        assert main(["serve", "--port", "0", "--workers", "3"]) == 0
        (stub,) = _StubService.instances
        assert stub.kwargs["dispatchers"] == 3

    def test_benchmark_command_line_is_one_queue_with_two_dispatchers(self):
        """``--service-workers`` only multiplies the dispatcher count of
        the one job queue the service runs."""
        assert main([
            "serve", "--port", "0", "--service-workers", "2", "--workers", "1",
        ]) == 0
        (stub,) = _StubService.instances
        assert stub.kwargs["dispatchers"] == 2
        assert "service_workers" not in stub.kwargs

    @pytest.mark.parametrize("argv", [
        ["loadgen", "--service-workers", "2"],
        ["report", "--load-service-workers", "2"],
    ])
    def test_shard_options_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestSubmitCommand:
    @pytest.fixture(scope="class")
    def service(self):
        from repro.service import PlanningService

        def echo_runner(request):
            return {"echo": request["scenario_ids"]}

        with PlanningService(port=0, dispatchers=1, runner=echo_runner) as svc:
            yield svc

    def test_submit_waits_and_writes_output(self, service, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main([
            "submit", "1", "--port", str(service.port), "--output", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "job " in printed
        assert f"wrote {out}" in printed
        assert out.read_bytes() == b'{"echo":[1]}'

    def test_submit_no_wait_prints_job_id(self, service, capsys):
        code = main(["submit", "2", "--port", str(service.port), "--no-wait"])
        assert code == 0
        assert "job " in capsys.readouterr().out

    def test_submit_failed_job_exits_nonzero(self, capsys):
        from repro.service import PlanningService

        def broken_runner(request):
            raise ValueError("no plan for you")

        with PlanningService(port=0, dispatchers=1, runner=broken_runner,
                             retries=0) as svc:
            code = main(["submit", "1", "--port", str(svc.port)])
        assert code == 1
        assert "no plan for you" in capsys.readouterr().err
