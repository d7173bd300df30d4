"""Tests for ``parallel_map``: paths, env resolution, faults and obs merge."""

import os

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec import parallel, parallel_map, resolve_workers
from repro.obs import Metrics, Tracer, activate, activate_metrics, get_metrics, span


# ----------------------------------------------------------------------
# Module-level task functions: the process pool pickles them by
# reference, so they cannot be closures.


def _double(x):
    return 2 * x


def _draw(x):
    return (x, float(np.random.default_rng(x).random()))


def _boom(x):
    if x == 3:
        raise ValueError("task three always fails")
    return x


def _flaky(marker):
    """Fail on the first call for ``marker`` (a path), succeed after.

    The marker file carries the state across worker processes.
    """
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient")
    return os.path.basename(marker)


def _traced(x):
    with span("task.work", item=x):
        get_metrics().counter("task.count").inc()
    return x


@pytest.fixture
def obs():
    """Private tracer + metrics so counters do not leak across tests."""
    tracer = Tracer()
    metrics = Metrics()
    with activate(tracer), activate_metrics(metrics):
        yield tracer, metrics


@pytest.fixture
def no_pool(monkeypatch):
    """Make every pool construction fail, forcing the inline fallback."""
    monkeypatch.setattr(parallel, "_make_pool", lambda workers: None)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_and_garbage_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ExecutionError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestChunking:
    def test_default_chunk_size_scales_with_workers(self):
        chunks = parallel._chunks([(i, i) for i in range(16)], workers=2)
        assert [len(c) for c in chunks] == [2] * 8

    def test_small_input_still_covered(self):
        chunks = parallel._chunks([(0, 0)], workers=4)
        assert [len(c) for c in chunks] == [1]


class TestBackendEquivalence:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_results_in_input_order(self, workers, obs):
        assert parallel_map(_double, range(9), workers=workers) == [
            2 * i for i in range(9)
        ]

    def test_empty_input(self, obs):
        assert parallel_map(_double, [], workers=2) == []

    def test_draws_independent_of_worker_count(self, obs):
        # Tasks draw only from generators seeded by their item, so the
        # inline path and the pool agree.
        one = parallel_map(_draw, range(6), workers=1)
        assert one == parallel_map(_draw, range(6), workers=4)

    def test_seeded_draws_identical_across_backends(self, obs, monkeypatch):
        # Inline, process pool and the inline fallback of a failed pool.
        inline = parallel_map(_draw, range(6), workers=1)
        pooled = parallel_map(_draw, range(6), workers=2)
        monkeypatch.setattr(parallel, "_make_pool", lambda workers: None)
        fallback = parallel_map(_draw, range(6), workers=2)
        assert inline == pooled == fallback

    def test_convenience_wrapper(self, obs):
        assert parallel_map(_double, range(4), workers=2) == [0, 2, 4, 6]

    def test_submitted_completed_counters(self, obs):
        _, metrics = obs
        parallel_map(_double, range(5), workers=2)
        assert metrics.counter("exec.tasks_submitted").value == 5
        assert metrics.counter("exec.tasks_completed").value == 5


class TestFaultInjection:
    def test_raising_task_serial(self, obs, no_pool):
        _, metrics = obs
        with pytest.raises(ExecutionError) as exc_info:
            parallel_map(_boom, range(5), workers=5)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert "2 attempt(s)" in str(exc_info.value)
        assert metrics.counter("exec.task_retries").value == 1
        assert metrics.counter("exec.tasks_failed").value == 1

    def test_raising_task_process(self, obs):
        _, metrics = obs
        with pytest.raises(ExecutionError) as exc_info:
            parallel_map(_boom, range(5), workers=5)
        assert "[task 3]" in str(exc_info.value)
        assert metrics.counter("exec.task_retries").value == 1
        assert metrics.counter("exec.tasks_failed").value == 1

    def test_retry_salvages_transient_failure(self, obs, tmp_path):
        _, metrics = obs
        markers = [str(tmp_path / name) for name in ("a", "b")]
        assert parallel_map(_flaky, markers, workers=2) == ["a", "b"]
        assert metrics.counter("exec.task_retries").value == 2
        assert metrics.counter("exec.tasks_failed").value == 0

    def test_unpicklable_task_is_clean_error(self, obs):
        with pytest.raises(ExecutionError):
            parallel_map(lambda x: x, range(3), workers=2)  # no lambdas

    def test_backend_fallback_to_serial(self, obs, no_pool):
        _, metrics = obs
        out = parallel_map(_double, range(6), workers=2)
        assert out == [2 * i for i in range(6)]
        assert metrics.counter("exec.backend_fallbacks").value == 1


class TestObsMerge:
    def test_worker_spans_and_metrics_merge(self, obs):
        tracer, metrics = obs
        out = parallel_map(_traced, range(4), workers=2)
        assert out == list(range(4))
        assert metrics.counter("task.count").value == 4
        work = [r for r in tracer.get_trace() if r.name == "task.work"]
        assert len(work) == 4
        assert [r.attributes["task_index"] for r in work] == [0, 1, 2, 3]
        assert all(r.attributes["origin"] == "exec.worker" for r in work)

    def test_merged_spans_feed_phase_timings(self, obs):
        tracer, _ = obs
        parallel_map(_traced, range(3), workers=2)
        timings = tracer.phase_timings()
        assert timings["task.work"]["calls"] == 3
