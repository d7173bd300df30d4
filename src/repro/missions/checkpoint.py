"""Per-epoch mission checkpoints: resume without losing byte-identity.

A mission document is a pure function of ``(spec, config, faults)`` -
including the per-epoch ``cache_hits``/``cache_misses`` counters, which
makes naive resume-with-a-warm-cache *wrong*: a re-run epoch that finds
entries on disk would record hits where the uninterrupted run recorded
misses.  The checkpoint therefore commits two things atomically in one
``state.json`` rename:

- the mission state after the last completed epoch (epoch records,
  surviving robot ids, exact positions - JSON floats round-trip through
  ``repr`` bit-exactly - accumulated totals), and
- the *cache manifest*: the set of disk-cache keys stored by completed
  epochs.

The private mission cache reads through a :class:`_ManifestStore` that
refuses to serve any entry not in the manifest, so entries written by a
half-finished epoch are invisible after a crash: the re-run misses,
recomputes, and overwrites the same content-addressed file.  Whatever
instant the process dies, the resumed document is byte-identical to an
uninterrupted run (the one caveat is LRU pressure: a mission whose
working set exceeds ``cache_capacity`` could see a disk hit where the
uninterrupted run's memory tier had already evicted - mission working
sets are one or two disk maps, far below any sane capacity).
"""

from __future__ import annotations

import json
from pathlib import Path
from shutil import rmtree
from typing import Any

from repro.exec.cache import ContentCache, DiskStore
from repro.io import (
    JOURNAL_FORMAT_VERSION,
    SUPPORTED_JOURNAL_VERSIONS,
    atomic_write,
    canonical_digest,
    dumps_canonical,
)
from repro.obs import get_metrics

__all__ = ["MissionCheckpoint", "checkpoint_key"]

_STATE_FILE = "state.json"
_CACHE_DIR = "cache"


def checkpoint_key(
    spec: dict[str, Any], config: dict[str, Any], faults: dict[str, Any] | None
) -> str:
    """Content address of a mission's identity.

    Stored inside every checkpoint so a directory reused for a
    *different* mission (or a stale checkpoint after a spec change)
    reads as "no checkpoint" instead of resuming the wrong run.
    """
    return canonical_digest({"spec": spec, "config": config, "faults": faults})


class _ManifestStore(DiskStore):
    """A DiskStore that serves only manifest-committed entries.

    ``allowed`` starts as the committed manifest and grows with every
    ``put`` in this run; :meth:`MissionCheckpoint.save` persists the
    grown set, which is the commit point that makes this run's entries
    visible to a future resume.
    """

    def __init__(self, directory: str | Path, allowed: set[str]) -> None:
        self.allowed = set(allowed)
        super().__init__(directory, fsync=True)

    def get(self, key: str) -> Any | None:
        if key not in self.allowed:
            return None
        return super().get(key)

    def put(self, key: str, value: Any) -> None:
        super().put(key, value)
        self.allowed.add(key)


class MissionCheckpoint:
    """Durable per-epoch snapshot of one mission under one directory.

    The service keys the directory by job id (itself the content
    address of the mission request), so one checkpoint can never be
    offered to a different mission - and ``key`` double-checks anyway.
    """

    def __init__(self, directory: str | Path, key: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key = str(key)
        self._store: _ManifestStore | None = None

    # -- mission state --------------------------------------------------

    def load(self) -> dict[str, Any] | None:
        """The last committed state, or None when there is nothing usable.

        Corrupt JSON, an unsupported version, and a key mismatch all
        read as "no checkpoint": the mission simply restarts from epoch
        zero, which is always correct (just slower).
        """
        path = self.directory / _STATE_FILE
        try:
            state = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(state, dict):
            return None
        if state.get("journal_version") not in SUPPORTED_JOURNAL_VERSIONS:
            get_metrics().counter("mission.checkpoint.version_rejected").inc()
            return None
        if state.get("key") != self.key:
            get_metrics().counter("mission.checkpoint.key_mismatch").inc()
            return None
        return state

    def save(self, state: dict[str, Any]) -> None:
        """Atomically commit mission state + the grown cache manifest.

        Written to a temp file, fsynced, then renamed over
        ``state.json`` - a crash at any instant leaves either the old
        or the new checkpoint, never a torn one.
        """
        doc = dict(state)
        doc["journal_version"] = JOURNAL_FORMAT_VERSION
        doc["key"] = self.key
        doc["cache_keys"] = (
            sorted(self._store.allowed) if self._store is not None else []
        )
        atomic_write(self.directory / _STATE_FILE, dumps_canonical(doc))
        get_metrics().counter("mission.checkpoint.saved").inc()

    # -- the private mission cache --------------------------------------

    def cache(self, capacity: int) -> ContentCache:
        """The mission's private cache, disk-backed under this checkpoint.

        Entries from committed epochs (per the loaded manifest) are
        served; anything else on disk is invisible until a later
        :meth:`save` commits it.
        """
        state = self.load()
        manifest = set(state.get("cache_keys", [])) if state else set()
        self._store = _ManifestStore(self.directory / _CACHE_DIR, manifest)
        return ContentCache(capacity=capacity, disk=self._store)

    # -- lifecycle ------------------------------------------------------

    def clear(self) -> None:
        """Remove the checkpoint entirely (the mission completed)."""
        rmtree(self.directory, ignore_errors=True)
