"""parallel_map: the campaigns' one fan-out over worker processes.

The experiment harness is embarrassingly parallel - scenarios, sweep
points, figure panels and campaign cases are independent pure
computations - so the engine here is a deterministic ``map``:

* **Inline** for at most one worker or one item: a bare list
  comprehension, so spans and metrics land on the caller's ambient
  registry exactly as a direct call would.
* **Process pool** otherwise, tasks shipped in contiguous chunks of
  ``ceil(n / (4 * workers))`` to amortise pickling.  If a pool cannot
  even be created (e.g. no ``/dev/shm`` semaphores in a sandbox) the
  chunks run inline and ``exec.backend_fallbacks`` counts it.
* **One retry** - a chunk that raises is retried once and then
  surfaces as :class:`repro.errors.ExecutionError`; a broken pool is
  rebuilt for the remaining work.  Retry/failure counts land in
  ``exec.*`` metrics.
* **Observability merge** - each pooled task runs under its own
  :class:`~repro.obs.Tracer` and :class:`~repro.obs.Metrics`; after the
  map the per-task snapshots are merged (in task order, hence
  deterministically) into the parent's ambient registry, and the
  per-task spans are re-emitted to the parent tracer's sink tagged with
  ``task_index`` - this is how ``--workers N --trace out.jsonl``
  produces one coherent trace file.

Results always come back in input order, whatever the completion order.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExecutionError
from repro.obs import Metrics, Tracer, activate, activate_metrics, get_metrics, get_tracer, span

__all__ = ["parallel_map", "resolve_workers"]

_WORKERS_ENV = "REPRO_WORKERS"
#: extra attempts for a chunk that raised
_RETRIES = 1


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: explicit value, else ``REPRO_WORKERS``, else 1.

    Raises
    ------
    ExecutionError
        When ``REPRO_WORKERS`` is set but is not an integer.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_WORKERS_ENV, "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ExecutionError(
            f"{_WORKERS_ENV}={env!r} is not an integer worker count"
        ) from None


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int | None = None,
) -> list[Any]:
    """Apply ``fn`` to every item; results in input order.

    With ``workers`` (``None`` reads ``REPRO_WORKERS``) at most 1, or at
    most one item, this is ``[fn(item) for item in items]``.  Otherwise
    the items go to a process pool in chunks (see the module docstring);
    ``fn`` must then be picklable, i.e. a module-level function.

    Raises
    ------
    ExecutionError
        On the pooled path, when ``fn`` does not pickle or a chunk still
        fails after its retry.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    metrics = get_metrics()
    metrics.counter("exec.tasks_submitted").inc(len(items))
    chunks = _chunks(list(enumerate(items)), workers)
    with span(
        "exec.map", workers=workers, tasks=len(items), chunks=len(chunks)
    ):
        outcomes = _map_pooled(fn, chunks, workers)
    outcomes.sort(key=lambda o: o[0])
    tracer = get_tracer()
    for index, _, spans, snapshot in outcomes:
        metrics.merge(snapshot)
        tracer.absorb_records(spans, task_index=index)
    metrics.counter("exec.tasks_completed").inc(len(items))
    return [result for _, result, _, _ in outcomes]


def _chunks(tasks: list, workers: int) -> list[list]:
    size = max(1, -(-len(tasks) // (4 * workers)))
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[tuple[int, Any]]
) -> list[tuple[int, Any, list[dict], dict]]:
    """Execute one chunk of ``(index, item)`` tasks.

    Top-level (hence picklable) so the pool can ship it.  Each task runs
    under a private tracer/metrics pair whose contents ride back with
    the result for the parent to merge.
    """
    outcomes = []
    for index, item in chunk:
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
    return outcomes


def _map_pooled(fn, chunks: list[list], workers: int) -> list:
    metrics = get_metrics()
    # An unpicklable fn can never reach a worker; failing it in the
    # feeder thread wedges the pool, so reject it up front.
    try:
        pickle.dumps(fn)
    except Exception as exc:
        metrics.counter("exec.tasks_failed").inc(sum(len(c) for c in chunks))
        raise ExecutionError(
            f"cannot ship {fn!r} to worker processes: it does not pickle "
            f"({exc!r}); pass a module-level function"
        ) from exc
    pool = _make_pool(workers)
    if pool is None:
        metrics.counter("exec.backend_fallbacks").inc()
        return [o for chunk in chunks for o in _run_inline(fn, chunk)]
    outcomes: list = []
    try:
        pending = [
            (chunk, 0, pool, pool.submit(_run_chunk, fn, chunk))
            for chunk in chunks
        ]
        while pending:
            chunk, failures, owner, future = pending.pop(0)
            try:
                outcomes.extend(future.result())
                continue
            except BrokenProcessPool as exc:
                if owner is pool:  # later futures of the same pool share its fate
                    _teardown(pool)
                    pool = _make_pool(workers)
                failure: Exception = exc
            except Exception as exc:
                failure = exc
            if failures >= _RETRIES:
                _fail(chunk, failure)
            metrics.counter("exec.task_retries").inc()
            if pool is None:
                # The pool could not be rebuilt: finish inline.
                metrics.counter("exec.backend_fallbacks").inc()
                outcomes.extend(_run_inline(fn, chunk))
                continue
            pending.append(
                (chunk, failures + 1, pool, pool.submit(_run_chunk, fn, chunk))
            )
    finally:
        if pool is not None:
            # Always terminate leftover workers: every wanted result is
            # already in hand (or we are raising), and a worker wedged
            # by a pickling failure would otherwise block interpreter
            # exit in the atexit join.
            _teardown(pool)
    return outcomes


def _run_inline(fn, chunk: list) -> list:
    for attempt in range(_RETRIES + 1):
        try:
            return _run_chunk(fn, chunk)
        except Exception as exc:
            failure = exc
            if attempt < _RETRIES:
                get_metrics().counter("exec.task_retries").inc()
    _fail(chunk, failure)


def _fail(chunk: list, failure: Exception) -> None:
    get_metrics().counter("exec.tasks_failed").inc(len(chunk))
    first, last = chunk[0][0], chunk[-1][0]
    label = f"task {first}" if first == last else f"tasks {first}..{last}"
    raise ExecutionError(
        f"task chunk [{label}] failed after {_RETRIES + 1} attempt(s): "
        f"{failure!r}"
    ) from failure


def _make_pool(workers: int) -> ProcessPoolExecutor | None:
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except Exception:
        return None


def _teardown(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without ever waiting on a stuck worker."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
