"""Content-addressed result cache: in-memory LRU plus optional disk store.

The expensive artifacts of this library - harmonic disk embeddings
above all - are pure functions of their inputs, so they can be cached
under a *content address*: a stable hash of the mesh/boundary inputs
rather than an object identity.  :func:`stable_hash` canonicalises the
supported value shapes (numbers, strings, bytes, numpy arrays, nested
lists/tuples/dicts) into an unambiguous byte stream and digests it with
BLAKE2b, so equal content always collides and different content
practically never does.

:class:`ContentCache` layers an in-memory LRU over an optional
:class:`DiskStore`; entries promoted from disk repopulate the LRU.  Hit
and miss counts land in the ambient :mod:`repro.obs` metrics registry
under ``cache.<namespace>.*`` so experiment runs can report hit rates.

Like the tracer and metrics registry, the cache is *ambient*:
instrumented code calls :func:`get_cache` and callers scope a specific
cache (or disable caching entirely) with :func:`activate_cache` /
:func:`set_cache`.  The process-wide default is a modest in-memory LRU.
"""

from __future__ import annotations

import contextvars
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.obs import get_metrics

__all__ = [
    "stable_hash",
    "LRUCache",
    "DiskStore",
    "ContentCache",
    "get_cache",
    "set_cache",
    "activate_cache",
    "disk_backed_cache",
]


# ----------------------------------------------------------------------
# Stable hashing


def _encode(value: Any, out: list[bytes]) -> None:
    """Append an unambiguous byte encoding of ``value`` to ``out``.

    Every branch starts with a distinct tag byte and length-prefixes
    variable-size payloads, so concatenations cannot alias across types
    or container boundaries.
    """
    if value is None:
        out.append(b"N")
    elif isinstance(value, bool):
        out.append(b"B1" if value else b"B0")
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        out.append(b"I" + len(raw).to_bytes(4, "big") + raw)
    elif isinstance(value, float):
        out.append(b"F" + np.float64(value).tobytes())
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, bytes):
        out.append(b"Y" + len(value).to_bytes(8, "big") + value)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        head = f"A{arr.dtype.str}{arr.shape}".encode("ascii")
        out.append(len(head).to_bytes(4, "big") + head)
        raw = arr.tobytes()
        out.append(len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, np.generic):
        _encode(value.item(), out)
    elif isinstance(value, (list, tuple)):
        out.append(b"L" + len(value).to_bytes(8, "big"))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        keys = sorted(value, key=repr)
        out.append(b"D" + len(keys).to_bytes(8, "big"))
        for k in keys:
            _encode(k, out)
            _encode(value[k], out)
    else:
        raise TypeError(
            f"stable_hash does not support {type(value).__name__}; "
            "pass primitives, numpy arrays or nested lists/dicts"
        )


def stable_hash(*parts: Any) -> str:
    """Hex digest content address of the given values.

    Deterministic across processes and platforms: dict keys are sorted,
    numpy arrays hash their dtype, shape and raw bytes, and every value
    is tag- and length-prefixed so distinct structures cannot collide by
    concatenation.
    """
    chunks: list[bytes] = []
    _encode(list(parts), chunks)
    import hashlib

    h = hashlib.blake2b(digest_size=20)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Stores


class LRUCache:
    """Thread-safe in-memory LRU keyed by content address."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Any] = OrderedDict()

    def get(self, key: str) -> Any | None:
        with self._lock:
            if key not in self._entries:
                return None
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskStore:
    """Pickle-per-entry store under a cache directory.

    Entries are sharded by the first two hex digits of the key and
    written atomically (temp file + rename), so concurrent writers -
    e.g. several experiment worker processes sharing ``--cache-dir`` -
    can only ever observe complete entries.  A corrupt or unreadable
    entry reads as a miss and is removed.

    Completed writes are fsynced before the rename (pass
    ``fsync=False`` to trade durability for write latency), and
    construction sweeps ``*.tmp`` droppings left behind by writers that
    were killed mid-write; the sweep count lands on the ambient metrics
    registry as ``cache.diskstore.tmp_swept``.
    """

    def __init__(self, directory: str | Path, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.swept_tmp = self.sweep_tmp()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def sweep_tmp(self) -> int:
        """Remove orphaned ``*.tmp`` files; returns how many were swept.

        A writer killed inside :func:`repro.io.atomic_write` leaves a
        temp file that no reader will ever resolve - harmless for
        correctness, but it leaks disk forever on a long-lived journal
        or cache directory.
        """
        swept = 0
        for tmp in self.directory.glob("**/*.tmp"):
            try:
                tmp.unlink()
                swept += 1
            except OSError:
                pass
        if swept:
            get_metrics().counter("cache.diskstore.tmp_swept").inc(swept)
        return swept

    def get(self, key: str) -> Any | None:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def put(self, key: str, value: Any) -> None:
        # Imported here: repro.io pulls in the planner, which imports
        # this module.
        from repro.io import atomic_write

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write(path, data, fsync=self.fsync)
        except OSError:
            pass  # a failed cache write is only a future miss

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.pkl"))


class ContentCache:
    """Two-tier content-addressed cache with per-namespace hit metrics.

    Parameters
    ----------
    capacity : int
        In-memory LRU entry budget.
    disk : DiskStore, str or Path, optional
        Optional second tier; a path is wrapped in a :class:`DiskStore`.

    Notes
    -----
    Keys should come from :func:`stable_hash`.  ``get``/``put`` take a
    *namespace* ("harmonic.diskmap", ...) that prefixes both the stored
    key and the emitted ``cache.<namespace>.{hits,misses,stores}``
    metrics, so one cache can serve several artifact kinds without key
    collisions between them.
    """

    def __init__(
        self,
        capacity: int = 128,
        disk: DiskStore | str | Path | None = None,
    ) -> None:
        self.memory = LRUCache(capacity)
        if disk is not None and not isinstance(disk, DiskStore):
            disk = DiskStore(disk)
        self.disk = disk

    @staticmethod
    def _qualify(namespace: str, key: str) -> str:
        return f"{namespace}:{key}"

    def get(self, namespace: str, key: str) -> Any | None:
        qkey = self._qualify(namespace, key)
        value = self.memory.get(qkey)
        if value is not None:
            get_metrics().counter(f"cache.{namespace}.hits").inc()
            return value
        if self.disk is not None:
            value = self.disk.get(stable_hash(qkey))
            if value is not None:
                self.memory.put(qkey, value)
                get_metrics().counter(f"cache.{namespace}.hits").inc()
                get_metrics().counter(f"cache.{namespace}.disk_hits").inc()
                return value
        get_metrics().counter(f"cache.{namespace}.misses").inc()
        return None

    def put(self, namespace: str, key: str, value: Any) -> None:
        qkey = self._qualify(namespace, key)
        self.memory.put(qkey, value)
        if self.disk is not None:
            self.disk.put(stable_hash(qkey), value)
        get_metrics().counter(f"cache.{namespace}.stores").inc()

    @staticmethod
    def hit_rate(namespace: str) -> float:
        """Hit rate for a namespace from the ambient metrics registry."""
        m = get_metrics()
        hits = m.counter(f"cache.{namespace}.hits").value
        misses = m.counter(f"cache.{namespace}.misses").value
        total = hits + misses
        return hits / total if total else 0.0


# ----------------------------------------------------------------------
# Ambient cache

_DEFAULT = ContentCache()
_ACTIVE: contextvars.ContextVar[ContentCache | None] = contextvars.ContextVar(
    "repro_active_cache", default=_DEFAULT
)


def get_cache() -> ContentCache | None:
    """The currently active cache (None when caching is disabled)."""
    return _ACTIVE.get()


def set_cache(cache: ContentCache | None) -> None:
    """Install ``cache`` as the ambient cache (None disables caching)."""
    _ACTIVE.set(cache)


@contextmanager
def activate_cache(cache: ContentCache | None) -> Iterator[ContentCache | None]:
    """Scope ``cache`` as the ambient cache for a ``with`` block."""
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


def disk_backed_cache(directory: str | Path, capacity: int = 128) -> ContentCache:
    """A ContentCache persisting to ``directory`` (the ``--cache-dir`` path)."""
    return ContentCache(capacity=capacity, disk=DiskStore(directory))
