"""Tests for the parallel map engine (backends, seeding, faults)."""

import random
import time

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec import (
    BACKENDS,
    ParallelMap,
    derive_seed,
    parallel_map,
    resolve_workers,
    seeded,
    task_rng,
)
from repro.obs import Metrics, Tracer, activate, activate_metrics, get_metrics, span


# ----------------------------------------------------------------------
# Module-level task functions: the process backend pickles them by
# reference, so they cannot be closures.


def _double(x):
    return 2 * x


def _draw(x):
    return (x, random.random(), float(np.random.rand()))


def _boom(x):
    if x == 3:
        raise ValueError("task three always fails")
    return x


def _sleepy(x):
    time.sleep(30.0)
    return x


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


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_seeded_scopes_and_restores_state(self):
        random.seed(999)
        np.random.seed(999)
        before = (random.getstate(), np.random.get_state()[1].tobytes())
        with seeded(42):
            first = (random.random(), float(np.random.rand()))
        after = (random.getstate(), np.random.get_state()[1].tobytes())
        assert before == after
        with seeded(42):
            assert (random.random(), float(np.random.rand())) == first

    def test_task_rng_independent_streams(self):
        a = task_rng(0, 0).random(4)
        b = task_rng(0, 1).random(4)
        assert not np.allclose(a, b)
        assert np.allclose(a, task_rng(0, 0).random(4))


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
        assert resolve_workers(None) == 1

    def test_floor_at_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ExecutionError):
            ParallelMap(backend="gpu")

    def test_bad_chunk_size(self):
        with pytest.raises(ExecutionError):
            ParallelMap(chunk_size=0)

    def test_bad_retries(self):
        with pytest.raises(ExecutionError):
            ParallelMap(retries=-1)

    def test_bad_timeout(self):
        with pytest.raises(ExecutionError):
            ParallelMap(timeout=0.0)


class TestChunking:
    def test_explicit_chunk_size(self):
        pm = ParallelMap(chunk_size=2)
        chunks = pm._chunk([(i, i, 0) for i in range(5)])
        assert [len(c) for c in chunks] == [2, 2, 1]

    def test_default_chunk_size_scales_with_workers(self):
        pm = ParallelMap(backend="thread", workers=2)
        chunks = pm._chunk([(i, i, 0) for i in range(16)])
        assert [len(c) for c in chunks] == [2] * 8

    def test_small_input_still_covered(self):
        pm = ParallelMap(backend="thread", workers=4)
        chunks = pm._chunk([(0, 0, 0)])
        assert [len(c) for c in chunks] == [1]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_input_order(self, backend, obs):
        pm = ParallelMap(backend=backend, workers=2, collect_obs=False)
        assert pm.map(_double, range(9)) == [2 * i for i in range(9)]

    def test_empty_input(self, obs):
        assert ParallelMap(backend="process", workers=2).map(_double, []) == []

    def test_seeded_draws_identical_across_backends(self, obs):
        draws = [
            ParallelMap(
                backend=b, workers=2, seed=7, collect_obs=False
            ).map(_draw, range(6))
            for b in BACKENDS
        ]
        assert draws[0] == draws[1] == draws[2]

    def test_draws_independent_of_worker_count(self, obs):
        one = ParallelMap(
            backend="process", workers=1, collect_obs=False, seed=3
        ).map(_draw, range(6))
        four = ParallelMap(
            backend="process", workers=4, collect_obs=False, seed=3
        ).map(_draw, range(6))
        assert one == four

    def test_root_seed_changes_draws(self, obs):
        a = ParallelMap(backend="serial", seed=1, collect_obs=False).map(
            _draw, range(4)
        )
        b = ParallelMap(backend="serial", seed=2, collect_obs=False).map(
            _draw, range(4)
        )
        assert a != b

    def test_convenience_wrapper(self, obs):
        assert parallel_map(_double, range(4), workers=2) == [0, 2, 4, 6]

    def test_submitted_completed_counters(self, obs):
        _, metrics = obs
        ParallelMap(backend="thread", workers=2).map(_double, range(5))
        assert metrics.counter("exec.tasks_submitted").value == 5
        assert metrics.counter("exec.tasks_completed").value == 5


class TestFaultInjection:
    def test_raising_task_serial(self, obs):
        _, metrics = obs
        pm = ParallelMap(backend="serial", retries=1, chunk_size=1)
        with pytest.raises(ExecutionError) as exc_info:
            pm.map(_boom, range(5))
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert "2 attempt(s)" in str(exc_info.value)
        assert metrics.counter("exec.task_retries").value == 1
        assert metrics.counter("exec.tasks_failed").value == 1

    def test_raising_task_process(self, obs):
        _, metrics = obs
        pm = ParallelMap(
            backend="process", workers=2, retries=1, chunk_size=1,
            collect_obs=False,
        )
        with pytest.raises(ExecutionError):
            pm.map(_boom, range(5))
        assert metrics.counter("exec.task_retries").value == 1
        assert metrics.counter("exec.tasks_failed").value == 1

    def test_retry_salvages_transient_failure(self, obs):
        _, metrics = obs
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return x

        out = ParallelMap(backend="serial", retries=1, chunk_size=1).map(
            flaky, [10]
        )
        assert out == [10]
        assert metrics.counter("exec.task_retries").value == 1
        assert metrics.counter("exec.tasks_failed").value == 0

    def test_unpicklable_task_is_clean_error(self, obs):
        pm = ParallelMap(
            backend="process", workers=2, retries=0, collect_obs=False
        )
        with pytest.raises(ExecutionError):
            pm.map(lambda x: x, range(3))  # lambdas cannot cross processes

    def test_timeout_never_hangs(self, obs):
        _, metrics = obs
        # workers=1 would degrade to the serial backend, which cannot
        # enforce timeouts; the pooled path needs workers > 1.
        pm = ParallelMap(
            backend="process", workers=2, timeout=0.3, retries=0,
            collect_obs=False,
        )
        start = time.monotonic()
        with pytest.raises(ExecutionError):
            pm.map(_sleepy, [1])
        elapsed = time.monotonic() - start
        assert elapsed < 15.0  # the 30s sleeper was abandoned, not joined
        assert metrics.counter("exec.task_timeouts").value == 1
        assert metrics.counter("exec.tasks_failed").value == 1

    def test_backend_fallback_to_serial(self, obs, monkeypatch):
        _, metrics = obs
        monkeypatch.setattr(
            ParallelMap, "_make_executor", lambda self, backend: None
        )
        out = ParallelMap(backend="process", workers=2).map(_double, range(6))
        assert out == [2 * i for i in range(6)]
        assert metrics.counter("exec.backend_fallbacks").value == 1


class TestObsMerge:
    def test_worker_spans_and_metrics_merge(self, obs):
        tracer, metrics = obs
        out = ParallelMap(backend="process", workers=2).map(_traced, range(4))
        assert out == list(range(4))
        assert metrics.counter("task.count").value == 4
        work = [r for r in tracer.get_trace() if r.name == "task.work"]
        assert len(work) == 4
        assert {r.attributes["task_index"] for r in work} == {0, 1, 2, 3}
        assert all(r.attributes["origin"] == "exec.worker" for r in work)

    def test_merged_spans_feed_phase_timings(self, obs):
        tracer, _ = obs
        ParallelMap(backend="thread", workers=2).map(_traced, range(3))
        timings = tracer.phase_timings()
        assert timings["task.work"]["calls"] == 3

    def test_collect_obs_off_leaves_parent_clean(self, obs):
        tracer, metrics = obs
        ParallelMap(backend="thread", workers=2, collect_obs=False).map(
            _traced, range(3)
        )
        # Thread workers share the ambient registry, so the counter still
        # moves, but no spans are re-emitted with a worker origin.
        assert not [
            r
            for r in tracer.get_trace()
            if r.attributes.get("origin") == "exec.worker"
        ]
