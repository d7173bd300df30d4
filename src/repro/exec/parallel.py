"""ParallelMap: chunked, seeded, fault-tolerant map over pluggable backends.

The experiment harness is embarrassingly parallel - scenarios, sweep
points and figure panels are independent pure computations - so the
engine here is a deterministic ``map``:

* **Backends** ``serial`` / ``thread`` / ``process``.  The process
  backend is the throughput path (numpy work holds the GIL enough that
  threads mostly help I/O); if a pool cannot even be created (e.g. no
  ``/dev/shm`` semaphores in a sandbox) the engine degrades gracefully
  to serial execution and counts ``exec.backend_fallbacks``.
* **Chunked fan-out** - tasks ship to workers in contiguous chunks to
  amortise pickling, default ``ceil(n / (4 * workers))``.
* **Deterministic seeding** - every task runs under a seed derived from
  ``(seed, task_index)`` (see :mod:`repro.exec.seeding`), so results
  are independent of worker assignment and of the worker count.
* **Timeouts and bounded retries** - a chunk that raises or times out
  is retried up to ``retries`` times and then surfaces as
  :class:`repro.errors.ExecutionError`; retry/timeout/failure counts
  land in ``exec.*`` metrics.  A timed-out process chunk never hangs
  the caller: the pool is torn down (stuck workers terminated) and
  rebuilt for the remaining work.
* **Observability merge** - with ``collect_obs=True`` each task runs
  under its own :class:`~repro.obs.Tracer` and
  :class:`~repro.obs.Metrics`; after the map the per-task snapshots are
  merged (in task order, hence deterministically) into the parent's
  ambient registry, and the per-task spans are re-emitted to the parent
  tracer's sink tagged with ``task_index`` - this is how ``--workers N
  --trace out.jsonl`` produces one coherent trace file.

Results always come back in input order, whatever the completion order.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExecutionError
from repro.exec.seeding import derive_seed, seeded
from repro.obs import Metrics, Tracer, activate, activate_metrics, get_metrics, get_tracer, span

try:  # BrokenProcessPool moved around across versions; resolve defensively
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient pythons only
    BrokenProcessPool = RuntimeError  # type: ignore[assignment,misc]

__all__ = ["BACKENDS", "ParallelMap", "parallel_map", "resolve_workers"]

BACKENDS = ("serial", "thread", "process")

_WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: explicit value, else ``REPRO_WORKERS``, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[tuple[int, Any, int]],
    collect_obs: bool,
) -> list[tuple[int, Any, list[dict] | None, dict | None]]:
    """Execute one chunk of ``(index, item, seed)`` tasks.

    Top-level (hence picklable) so the process backend can ship it.
    Each task runs under its derived seed; with ``collect_obs`` it also
    runs under a private tracer/metrics pair whose contents ride back
    with the result for the parent to merge.
    """
    outcomes: list[tuple[int, Any, list[dict] | None, dict | None]] = []
    for index, item, task_seed in chunk:
        with seeded(task_seed):
            if collect_obs:
                tracer = Tracer()
                metrics = Metrics()
                with activate(tracer), activate_metrics(metrics):
                    result = fn(item)
                outcomes.append((
                    index,
                    result,
                    [r.to_dict() for r in tracer.get_trace()],
                    metrics.snapshot(),
                ))
            else:
                outcomes.append((index, fn(item), None, None))
    return outcomes


class ParallelMap:
    """Deterministic parallel ``map`` with retries, timeouts and obs merge.

    Parameters
    ----------
    backend : {"serial", "thread", "process"}
    workers : int, optional
        Worker count; ``None`` reads ``REPRO_WORKERS`` (default 1).  A
        resolved count of 1 always executes serially.
    chunk_size : int, optional
        Tasks per worker submission (default ``ceil(n / (4*workers))``).
    timeout : float, optional
        Seconds allowed per *task* once its chunk is being waited on
        (a chunk of ``k`` tasks gets ``k * timeout``).  Unenforced on
        the serial backend; on the thread backend a timed-out task
        cannot be interrupted, only abandoned.
    retries : int
        Extra attempts for a failed or timed-out chunk (default 1).
    seed : int
        Root seed for per-task deterministic seeding.
    collect_obs : bool
        Run tasks under private tracers/metrics and merge them back
        (default True).

    Raises
    ------
    ExecutionError
        From :meth:`map`, when a chunk still fails after its retry
        budget.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: int | None = None,
        chunk_size: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
        seed: int = 0,
        collect_obs: bool = True,
    ) -> None:
        if backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ExecutionError("chunk_size must be positive")
        if retries < 0:
            raise ExecutionError("retries must be non-negative")
        if timeout is not None and timeout <= 0:
            raise ExecutionError("timeout must be positive")
        self.backend = backend
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.retries = retries
        self.seed = int(seed)
        self.collect_obs = collect_obs

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item; results in input order."""
        tasks = [
            (index, item, derive_seed(self.seed, index))
            for index, item in enumerate(items)
        ]
        if not tasks:
            return []
        backend = self.backend if self.workers > 1 else "serial"
        metrics = get_metrics()
        metrics.counter("exec.tasks_submitted").inc(len(tasks))
        with span(
            "exec.map", backend=backend, workers=self.workers, tasks=len(tasks)
        ) as sp_:
            chunks = self._chunk(tasks)
            if backend == "serial":
                outcomes = self._map_serial(fn, chunks)
            else:
                outcomes = self._map_pooled(fn, chunks, backend)
            sp_.set_attributes(chunks=len(chunks))
        outcomes.sort(key=lambda o: o[0])
        self._merge_obs(outcomes)
        metrics.counter("exec.tasks_completed").inc(len(tasks))
        return [result for _, result, _, _ in outcomes]

    # ------------------------------------------------------------------

    def _chunk(self, tasks: list) -> list[list]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = max(1, -(-len(tasks) // (4 * max(1, self.workers))))
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    def _map_serial(self, fn, chunks: list[list]) -> list:
        outcomes: list = []
        for chunk in chunks:
            outcomes.extend(self._attempt_serial(fn, chunk))
        return outcomes

    def _attempt_serial(self, fn, chunk: list) -> list:
        metrics = get_metrics()
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                return _run_chunk(fn, chunk, self.collect_obs)
            except Exception as exc:
                last = exc
                if attempt < self.retries:
                    metrics.counter("exec.task_retries").inc()
        metrics.counter("exec.tasks_failed").inc(len(chunk))
        raise ExecutionError(
            f"task chunk {self._chunk_label(chunk)} failed after "
            f"{self.retries + 1} attempt(s): {last!r}"
        ) from last

    # ------------------------------------------------------------------

    def _map_pooled(self, fn, chunks: list[list], backend: str) -> list:
        if backend == "process":
            # An unpicklable fn can never reach a worker; failing it in
            # the feeder thread wedges the pool, so reject it up front.
            try:
                pickle.dumps(fn)
            except Exception as exc:
                get_metrics().counter("exec.tasks_failed").inc(
                    sum(len(c) for c in chunks)
                )
                raise ExecutionError(
                    f"cannot ship {fn!r} to process workers: it does not "
                    f"pickle ({exc!r}); use the thread or serial backend"
                ) from exc
        executor = self._make_executor(backend)
        if executor is None:
            get_metrics().counter("exec.backend_fallbacks").inc()
            return self._map_serial(fn, chunks)
        metrics = get_metrics()
        outcomes: list = []
        attempts = {id(chunk): 0 for chunk in chunks}
        try:
            pending = [
                (chunk, executor.submit(_run_chunk, fn, chunk, self.collect_obs))
                for chunk in chunks
            ]
            while pending:
                chunk, future = pending.pop(0)
                chunk_timeout = (
                    None if self.timeout is None else self.timeout * len(chunk)
                )
                try:
                    outcomes.extend(future.result(timeout=chunk_timeout))
                    continue
                except FuturesTimeoutError as exc:
                    metrics.counter("exec.task_timeouts").inc()
                    future.cancel()
                    # A stuck process worker would otherwise hold its
                    # slot (and hang interpreter exit); tear the pool
                    # down and continue on a fresh one.
                    if backend == "process":
                        self._teardown(executor)
                        executor = self._make_executor(backend)
                    failure: Exception = exc
                except BrokenProcessPool as exc:
                    self._teardown(executor)
                    executor = self._make_executor(backend)
                    failure = exc
                except Exception as exc:
                    failure = exc
                attempts[id(chunk)] += 1
                if attempts[id(chunk)] <= self.retries:
                    metrics.counter("exec.task_retries").inc()
                    if executor is None:
                        # Pool could not be rebuilt: finish serially.
                        metrics.counter("exec.backend_fallbacks").inc()
                        outcomes.extend(self._attempt_serial(fn, chunk))
                        continue
                    pending.append((
                        chunk,
                        executor.submit(_run_chunk, fn, chunk, self.collect_obs),
                    ))
                    continue
                metrics.counter("exec.tasks_failed").inc(len(chunk))
                raise ExecutionError(
                    f"task chunk {self._chunk_label(chunk)} failed after "
                    f"{self.retries + 1} attempt(s) on the {backend} "
                    f"backend: {failure!r}"
                ) from failure
        finally:
            if executor is not None:
                # Always terminate leftover workers: every wanted result
                # is already in hand (or we are raising), and a worker
                # wedged by a pickling failure would otherwise block
                # interpreter exit in the atexit join.
                self._teardown(executor)
        return outcomes

    def _make_executor(self, backend: str) -> Executor | None:
        try:
            if backend == "thread":
                return ThreadPoolExecutor(max_workers=self.workers)
            return ProcessPoolExecutor(max_workers=self.workers)
        except Exception:
            return None

    @staticmethod
    def _teardown(executor: Executor) -> None:
        """Shut a pool down without ever waiting on a stuck worker."""
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass

    @staticmethod
    def _chunk_label(chunk: list) -> str:
        indices = [index for index, _, _ in chunk]
        if len(indices) == 1:
            return f"[task {indices[0]}]"
        return f"[tasks {indices[0]}..{indices[-1]}]"

    # ------------------------------------------------------------------

    def _merge_obs(self, outcomes: list) -> None:
        """Fold per-task spans/metrics (task order) into the parent obs."""
        if not self.collect_obs:
            return
        metrics = get_metrics()
        tracer = get_tracer()
        for index, _, spans, snapshot in outcomes:
            if snapshot:
                metrics.merge(snapshot)
            if spans:
                tracer.absorb_records(spans, task_index=index)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int | None = None,
    **kwargs: Any,
) -> list[Any]:
    """The campaigns' one fan-out: inline for one worker or item, else pooled.

    With ``workers`` (``None`` reads ``REPRO_WORKERS``) at most 1, or at
    most one item, this is a bare ``[fn(item) for item in items]`` - no
    ``exec.map`` span, no per-task seeding, no private tracer - so spans
    and metrics land on the caller's ambient registry exactly as a
    direct call would.  Otherwise the items go through a process-backed
    :class:`ParallelMap` (``kwargs`` are its other options); both paths
    return the same results in input order.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return ParallelMap(backend="process", workers=workers, **kwargs).map(
        fn, items
    )
