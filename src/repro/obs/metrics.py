"""Counters, gauges and histograms with a thread-safe in-memory backend.

The metrics half of the observability layer: named instruments that
instrumented code bumps as it runs::

    get_metrics().counter("distributed.messages_delivered").inc(37)
    get_metrics().gauge("repair.rounds").set(2)
    get_metrics().histogram("harmonic.iterations").observe(412)

Instruments are created on first use and shared by name.  All updates
take the registry's lock, which is fine at the library's granularity:
instruments are bumped per stage / per protocol run, never inside
numerical inner loops.

Like the tracer, the registry is ambient: :func:`get_metrics` returns
the registry installed by :func:`activate_metrics` (or a process-wide
default), so library code never threads a registry through call
signatures.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "get_metrics",
    "set_metrics",
    "activate_metrics",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "counter", "name": self.name, "value": self._value}


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "gauge", "name": self.name, "value": self._value}


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean)."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = lock

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)

    def absorb(self, payload: dict[str, Any]) -> None:
        """Fold another histogram's ``to_dict`` payload into this one."""
        count = int(payload.get("count", 0))
        if count <= 0:
            return
        other_min = payload.get("min")
        other_max = payload.get("max")
        with self._lock:
            self.count += count
            self.total += float(payload.get("total", 0.0))
            if other_min is not None:
                self.min = other_min if self.min is None else min(self.min, other_min)
            if other_max is not None:
                self.max = other_max if self.max is None else max(self.max, other_max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class Metrics:
    """A registry of named instruments (get-or-create semantics).

    Asking for an existing name with a different instrument kind raises
    ``TypeError`` - instrument names are unique across kinds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, self._lock)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All instruments as plain dicts, keyed by name (sorted)."""
        with self._lock:
            insts = list(self._instruments.values())
        return {inst.name: inst.to_dict() for inst in sorted(insts, key=lambda i: i.name)}

    def merge(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters add, gauges take the incoming value, histograms absorb
        the incoming summary.  This is how per-worker registries from
        :func:`repro.exec.parallel_map` land back in the parent; merging
        snapshots in task order keeps the combined registry
        deterministic regardless of worker scheduling.
        """
        for name in sorted(snapshot):
            payload = snapshot[name]
            kind = payload.get("kind")
            if kind == "counter":
                self.counter(name).inc(float(payload.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).set(float(payload.get("value", 0.0)))
            elif kind == "histogram":
                self.histogram(name).absorb(payload)

    def reset(self) -> None:
        """Drop every instrument (fresh registry state)."""
        with self._lock:
            self._instruments.clear()


_DEFAULT = Metrics()
_ACTIVE: contextvars.ContextVar[Metrics] = contextvars.ContextVar(
    "repro_active_metrics", default=_DEFAULT
)


def get_metrics() -> Metrics:
    """The currently active (ambient) metrics registry."""
    return _ACTIVE.get()


def set_metrics(metrics: Metrics | None) -> None:
    """Install ``metrics`` as the ambient registry (None -> default)."""
    _ACTIVE.set(metrics if metrics is not None else _DEFAULT)


@contextmanager
def activate_metrics(metrics: Metrics | None) -> Iterator[Metrics]:
    """Scope ``metrics`` as the ambient registry for a ``with`` block."""
    resolved = metrics if metrics is not None else _DEFAULT
    token = _ACTIVE.set(resolved)
    try:
        yield resolved
    finally:
        _ACTIVE.reset(token)
