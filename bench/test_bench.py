"""Self-tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
for path in (str(BENCH_DIR), str(REPO_ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from traced_serve import SERVICE_ROOT  # noqa: E402


def _work(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestSelfTime:
    def test_self_times_sum_to_root(self):
        tracer = layers.LayerTracer()

        def tree():
            with tracer.span(layers.ROOT):
                _work(0.002)
                with tracer.span("a"):
                    _work(0.003)
                    with tracer.span("b"):
                        _work(0.004)
                    with tracer.span("a"):  # a layer nested in itself
                        _work(0.001)
                with tracer.span("c"):
                    _work(0.002)

        threads = [threading.Thread(target=tree) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        tree()

        report = tracer.report()
        totals = {}
        for state in tracer._states:
            for layer, (self_s, calls) in state.acc.items():
                totals[layer] = totals.get(layer, 0.0) + self_s
                assert self_s >= 0.0
        assert sum(totals.values()) == pytest.approx(
            report["trace.traced_total_s"], rel=1e-12, abs=1e-12
        )
        assert totals["a"] >= 3 * 0.004 - 1e-3  # both "a" frames, not "b"
        assert report["trace.unattributed_frac"] == pytest.approx(
            totals[layers.ROOT] / report["trace.traced_total_s"]
        )

    def test_wrapped_calls_are_counted_and_charged(self):
        tracer = layers.LayerTracer()
        inner = tracer.wrap(lambda: _work(0.002), "marching.plan")
        with tracer.span(layers.ROOT):
            inner()
            inner()
        report = tracer.report()
        assert report["marching.plan.calls"] == 2
        assert report["marching.plan.self_s"] >= 0.004
        assert report["missions.run.calls"] == 0  # every layer is reported


class TestTargets:
    def test_every_target_resolves_on_this_commit(self):
        for target, layer in layers.TARGETS + (SERVICE_ROOT,):
            owner, attr, value = layers.resolve(target)
            assert callable(getattr(value, "__func__", value)), target
            assert layer == layers.ROOT or layer in layers.LAYERS

    def test_missing_target_is_reported_absent_not_fatal(self):
        import repro.io

        original = repro.io.dumps_canonical
        missing = (("repro.no_such_module:f", "io.serialize"),
                   ("repro.io:no_such_function", "io.serialize"))
        tracer = layers.LayerTracer()
        absent = tracer.install(layers.TARGETS + missing)
        try:
            assert absent == [t for t, _ in missing]
            with tracer.span(layers.ROOT):
                repro.io.dumps_canonical({"a": 1})
        finally:
            tracer.uninstall()
        assert repro.io.dumps_canonical is original
        assert tracer.report()["io.serialize.calls"] == 1

    def test_imports_by_name_are_not_wrapped_twice(self):
        import repro.experiments.harness as harness
        import repro.metrics

        tracer = layers.LayerTracer()
        tracer.install()
        try:
            assert harness.connectivity_report.__wrapped__ is (
                repro.metrics.connectivity_report.__wrapped__
            )
        finally:
            tracer.uninstall()


class TestSchedule:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        for seed in (0, 1, 7):
            first = workloads.build_schedule(seed, 20.0)
            assert workloads.build_schedule(seed, 20.0) == first
            assert len(first) == 60
            repeats = [e for e in first if e["repeat_of"] is not None]
            assert len(repeats) == round(0.2 * 59)
            for entry in repeats:
                origin = first[entry["repeat_of"]]
                assert origin["repeat_of"] is None
                assert origin["request"] == entry["request"]
                assert origin["t"] <= entry["t"]
            assert [e["t"] for e in first] == sorted(e["t"] for e in first)
        assert workloads.build_schedule(0, 20.0) != workloads.build_schedule(1, 20.0)

    def test_schedule_is_the_same_in_another_process(self):
        code = ("import json, workloads; "
                "print(json.dumps(workloads.build_schedule(3, 20.0)))")
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True,
            text=True, check=True,
            env={"PYTHONPATH": f"{BENCH_DIR}:{REPO_ROOT / 'src'}",
                 "PYTHONHASHSEED": "123"},
        ).stdout
        assert json.loads(out) == json.loads(json.dumps(workloads.build_schedule(3, 20.0)))


class TestCompare:
    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        assert run.verdict(base, [x * 1.3 for x in base], "lower", 0.1) == "worse"
        assert run.verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "better"
        assert run.verdict(base, [x * 1.01 for x in base], "lower", 0.1) == "unchanged"
        assert run.verdict(base, [x * 0.8 for x in base], "higher", 0.1) == "worse"
        noisy = [1.0, 2.0, 0.5, 1.5, 0.7]
        assert run.verdict(base, noisy, "lower", 0.1) == "unresolved"
        assert run.verdict([1.0], [1.05], "lower", 0.1) == "unresolved"


class TestEndToEnd:
    def test_smoke_run_of_all_workloads(self):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        for workload in run.WORKLOADS:
            assert f"{workload}.op_gmean_s" in line["metrics"]
        assert elapsed < 60.0

    def test_without_program_source_it_fails_without_a_result(self, tmp_path):
        shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH_DIR, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper_holes",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
