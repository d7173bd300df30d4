"""Write-ahead job journal: the durability layer under the job queues.

Every job state transition the service accepts is appended to an
append-only, fsynced journal *before* the caller is acknowledged, so a
``kill -9`` can lose at most the one record that was mid-write - and a
torn trailing record is detected and skipped on replay, never
misinterpreted.  Records are versioned canonical-JSON lines authored by
:func:`repro.io.journal_record`, one per line, grouped into numbered
segment files that rotate at a size threshold and are compacted into a
single live-state snapshot on recovery.

Large ``done`` payloads do not travel through the log: the result bytes
are written to a content-named side file (atomic rename + fsync) first,
and the journal records only the job id and a SHA-256 digest.  Replay
verifies the digest; a missing or torn payload simply downgrades the
job back to ``queued`` - the content-address dedup of
:class:`repro.service.JobQueue` makes re-execution idempotent, which is
what turns this journal's at-least-once replay into exactly-once
*results*.

The journal is shared by all shard queues of one
:class:`~repro.service.PlanningService` process; appends are serialised
under an internal lock, and a pid lock file refuses to open a journal
directory that another live process is writing.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import JournalError
from repro.io import (
    atomic_write,
    check_journal_version,
    dumps_canonical,
    journal_record,
)
from repro.obs import get_metrics

__all__ = ["JobJournal", "JournalReplay", "replay_records"]

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".wal"
_LOCK_FILE = "journal.lock"
_RESULTS_DIR = "results"

#: record types that describe a job state transition (fold order matters).
_TRANSITIONS = (
    "submitted",
    "claimed",
    "released",
    "done",
    "failed",
    "cancelled",
    "evicted",
    "event",
    "job",
)


@dataclass
class JournalReplay:
    """Folded outcome of replaying every surviving journal record.

    ``jobs`` maps job id to its folded state dict (``state`` is one of
    the queue states plus the replay-only markers described in
    :func:`replay_records`); ``evicted`` maps evicted job ids to their
    wall-clock eviction time for the ``410 expired`` contract.
    """

    jobs: dict[str, dict[str, Any]] = field(default_factory=dict)
    evicted: dict[str, float] = field(default_factory=dict)
    records: int = 0
    torn: int = 0
    segments: int = 0


def replay_records(records: Iterator[dict[str, Any]]) -> JournalReplay:
    """Fold journal records into final per-job state.

    The fold mirrors the queue's transition rules: ``submitted`` creates
    or revives a job (resetting its event log, exactly as a live revive
    does), ``claimed`` marks it running, ``done``/``failed``/
    ``cancelled`` terminate it, ``released`` parks it back in the queue
    (graceful drain), ``evicted`` forgets it but remembers *when*, and
    ``job`` is a whole-state snapshot written by compaction.
    """
    out = JournalReplay()
    for record in records:
        out.records += 1
        rtype = record.get("type")
        job_id = record.get("job_id")
        if rtype == "evicted":
            if job_id is not None:
                out.jobs.pop(job_id, None)
                out.evicted[job_id] = float(record.get("at", 0.0))
            continue
        if job_id is None:
            continue
        if rtype == "submitted":
            out.jobs[job_id] = {
                "job_id": job_id,
                "request": record.get("request"),
                "priority": int(record.get("priority", 0)),
                "provenance": str(record.get("provenance", "new")),
                "state": "queued",
                "interrupted": False,
                "events": [],
                "error": None,
                "digest": None,
                "submissions": int(record.get("submissions", 1)),
            }
            out.evicted.pop(job_id, None)
            continue
        job = out.jobs.get(job_id)
        if rtype == "job":
            out.jobs[job_id] = {
                "job_id": job_id,
                "request": record.get("request"),
                "priority": int(record.get("priority", 0)),
                "provenance": str(record.get("provenance", "new")),
                "state": str(record.get("state", "queued")),
                "interrupted": bool(record.get("interrupted", False)),
                "events": list(record.get("events", [])),
                "error": record.get("error"),
                "digest": record.get("digest"),
                "submissions": int(record.get("submissions", 1)),
            }
        elif job is None:
            # Transition for a job whose ``submitted`` record was torn
            # away or compacted out after eviction: nothing to fold onto.
            continue
        elif rtype == "event":
            job["events"].append(record.get("event", {}))
        elif rtype == "claimed":
            job["state"] = "running"
        elif rtype == "released":
            job["state"] = "queued"
            job["interrupted"] = True
        elif rtype == "done":
            job["state"] = "done"
            job["digest"] = record.get("digest")
        elif rtype == "failed":
            job["state"] = "failed"
            job["error"] = record.get("error")
        elif rtype == "cancelled":
            job["state"] = "cancelled"
            job["error"] = record.get("error")
    return out


class JobJournal:
    """Append-only segmented journal under one directory.

    Layout::

        <directory>/journal.lock        pid of the live writer
        <directory>/journal-00000001.wal
        <directory>/journal-00000002.wal   (rotation)
        <directory>/results/<job_id>.json  fsynced result payloads
        <directory>/missions/<job_id>/     mission checkpoints (owned by
                                           repro.missions, not this class)

    Appends never touch a pre-existing segment: on open, writing starts
    in a *fresh* segment numbered after the highest survivor, so a torn
    tail from a previous crash is quarantined where replay can skip it.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fh: Any = None
        self._segment_index = 0
        self._segment_bytes = 0
        self._closed = False
        self._torn = 0
        self._acquire_lockfile()
        (self.directory / _RESULTS_DIR).mkdir(exist_ok=True)

    # -- lock file ------------------------------------------------------

    def _acquire_lockfile(self) -> None:
        lock_path = self.directory / _LOCK_FILE
        my_pid = os.getpid()
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = int(lock_path.read_text().strip() or "0")
            except (OSError, ValueError):
                owner = 0
            if owner and owner != my_pid and _pid_alive(owner):
                raise JournalError(
                    f"journal directory {self.directory} is locked by live "
                    f"process {owner}; two writers would corrupt the log"
                ) from None
            # Stale lock from a killed process: steal it.
            lock_path.write_text(f"{my_pid}\n")
            return
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{my_pid}\n")

    def _release_lockfile(self) -> None:
        try:
            (self.directory / _LOCK_FILE).unlink(missing_ok=True)
        except OSError:
            pass

    # -- segments -------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(
            p
            for p in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            if p.is_file()
        )

    @staticmethod
    def _segment_number(path: Path) -> int:
        stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return 0

    def _open_fresh_segment(self) -> None:
        existing = self._segment_paths()
        top = max((self._segment_number(p) for p in existing), default=0)
        self._segment_index = max(top, self._segment_index) + 1
        path = self.directory / (
            f"{_SEGMENT_PREFIX}{self._segment_index:08d}{_SEGMENT_SUFFIX}"
        )
        self._fh = open(path, "ab")
        self._segment_bytes = 0
        get_metrics().counter("service.journal.segments_opened").inc()

    @property
    def segment_count(self) -> int:
        return len(self._segment_paths())

    # -- append path ----------------------------------------------------

    def append(self, rtype: str, **fields: Any) -> None:
        """Durably append one versioned record.

        The record is on disk (written + fsynced) when this returns, so
        callers may acknowledge the transition to clients.  Raises
        :class:`JournalError` after :meth:`close`.
        """
        line = dumps_canonical(journal_record(rtype, **fields)) + b"\n"
        with self._lock:
            if self._closed:
                raise JournalError("journal is closed")
            if self._fh is None or self._segment_bytes >= self.segment_max_bytes:
                if self._fh is not None:
                    self._fh.close()
                self._open_fresh_segment()
            self._fh.write(line)
            self._segment_bytes += len(line)
            # Always flush so the record is visible to readers (and
            # survives a graceful exit) even in no-fsync mode; fsync is
            # the extra step that survives kill -9 / power loss.
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        metrics = get_metrics()
        metrics.counter("service.journal.appends").inc()
        metrics.counter(f"service.journal.appends.{rtype}").inc()

    # -- result side files ---------------------------------------------

    def _result_path(self, job_id: str) -> Path:
        return self.directory / _RESULTS_DIR / f"{job_id}.json"

    def put_result(self, job_id: str, payload: bytes) -> str:
        """Durably store a result payload; returns its hex SHA-256.

        Called *before* the ``done`` record is journalled, so a ``done``
        that survived a crash always has its payload (or the digest
        check fails and replay re-queues the job).
        """
        atomic_write(self._result_path(job_id), payload, fsync=self.fsync)
        return hashlib.sha256(payload).hexdigest()

    def get_result(self, job_id: str, digest: str | None) -> bytes | None:
        """Load a result payload, verifying its journalled digest.

        Returns ``None`` (never bad bytes) when the side file is
        missing, unreadable, or does not match the digest.
        """
        try:
            payload = self._result_path(job_id).read_bytes()
        except OSError:
            return None
        if digest is not None and hashlib.sha256(payload).hexdigest() != digest:
            return None
        return payload

    def drop_result(self, job_id: str) -> None:
        try:
            self._result_path(job_id).unlink(missing_ok=True)
        except OSError:
            pass

    # -- replay + compaction --------------------------------------------

    def _iter_segment(self, path: Path) -> Iterator[dict[str, Any]]:
        try:
            raw = path.read_bytes()
        except OSError:
            return
        complete = raw.endswith(b"\n")
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for index, line in enumerate(lines):
            last = index == len(lines) - 1
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # A torn or corrupt line.  A torn *tail* is the expected
                # kill -9 signature; corruption mid-segment means the
                # rest of the segment cannot be trusted either.
                self._torn += 1
                return
            if last and not complete:
                # Fully parseable JSON but no trailing newline: the
                # write may still have been truncated inside an escape-
                # free suffix; accept it only if it round-trips.
                if dumps_canonical(record) != line:
                    self._torn += 1
                    return
            check_journal_version(record, source=path)
            yield record

    def replay(self) -> JournalReplay:
        """Read every surviving record and fold it into live state.

        Torn trailing records are skipped and counted (they were never
        acknowledged, so dropping them is correct).  Raises
        :class:`JournalError` on an unsupported record version.
        """
        self._torn = 0
        segments = self._segment_paths()

        def _all() -> Iterator[dict[str, Any]]:
            for path in segments:
                yield from self._iter_segment(path)

        out = replay_records(_all())
        out.torn = self._torn
        out.segments = len(segments)
        metrics = get_metrics()
        metrics.counter("service.journal.replayed_records").inc(out.records)
        if out.torn:
            metrics.counter("service.journal.torn_records").inc(out.torn)
        return out

    def compact(self, replay: JournalReplay) -> None:
        """Rewrite the folded state as one snapshot segment.

        Writes every live job as a ``job`` record plus the eviction map
        into a fresh segment, fsyncs it, then deletes all older
        segments.  Run immediately after :meth:`replay` on startup -
        before concurrent appends exist - so the journal does not grow
        without bound across restarts.
        """
        with self._lock:
            if self._closed:
                raise JournalError("journal is closed")
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            old = self._segment_paths()
            self._open_fresh_segment()
            for job in replay.jobs.values():
                record = journal_record(
                    "job",
                    job_id=job["job_id"],
                    request=job["request"],
                    priority=job["priority"],
                    provenance=job["provenance"],
                    state=job["state"],
                    interrupted=job["interrupted"],
                    events=job["events"],
                    error=job["error"],
                    digest=job["digest"],
                    submissions=job["submissions"],
                )
                line = dumps_canonical(record) + b"\n"
                self._fh.write(line)
                self._segment_bytes += len(line)
            for job_id, at in sorted(replay.evicted.items()):
                line = dumps_canonical(
                    journal_record("evicted", job_id=job_id, at=at)
                ) + b"\n"
                self._fh.write(line)
                self._segment_bytes += len(line)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            for path in old:
                try:
                    path.unlink()
                except OSError:
                    pass
        get_metrics().counter("service.journal.compactions").inc()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None
        self._release_lockfile()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True
