"""Journal sinks: the null sink, the durable writer, and crash tooling.

Mirrors the :mod:`repro.obs.recorder` pattern: components hold a sink
and guard instrumentation sites with ``if sink.enabled:``, so the
default :data:`NULL_JOURNAL` costs one attribute read per site and the
journaling-off configuration stays zero-cost.

:class:`JournalWriter` is the durable implementation: framed appends to
``events.jsonl`` under a journal directory, flush-per-append (optionally
``fsync``), and periodic inline snapshots taken only at *quiescent*
points — queue drained, no scheduled events, no busy workers — so a
snapshot is a complete description of carry-over state and restoring one
never has to reconstruct in-flight builds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import JournalError
from repro.journal.framing import encode_record
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import metric_field

#: File name of the event log inside a journal directory.
EVENTS_FILENAME = "events.jsonl"
#: Default append count between snapshot attempts.
DEFAULT_SNAPSHOT_EVERY = 512


def events_path(journal_dir: str) -> str:
    return os.path.join(journal_dir, EVENTS_FILENAME)


class JournalSink:
    """No-op base sink; every operation is free when journaling is off."""

    enabled = False

    def append(self, record: Dict[str, object]) -> None:
        pass

    def maybe_snapshot(self, service) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared default, mirroring ``NULL_RECORDER``.
NULL_JOURNAL = JournalSink()


@dataclass(eq=False)
class JournalCounts:
    """What a :class:`JournalWriter` has written, exposed on its recorder
    (``eq=False``: writers compare by identity)."""

    #: Records appended, snapshots included.
    appends: int = metric_field(
        "journal_appends_total", "Records appended to the event journal."
    )
    bytes_written: int = metric_field(
        "journal_bytes_written_total", "Bytes appended to the event journal."
    )
    fsyncs: int = metric_field(
        "journal_fsyncs_total", "fsync() calls issued by the journal writer."
    )
    snapshots: int = metric_field(
        "journal_snapshots_total", "Inline state snapshots taken."
    )


class JournalWriter(JournalCounts, JournalSink):
    """Durable append-only sink over ``<journal_dir>/events.jsonl``.

    ``fresh=True`` (the default) refuses to write over an existing
    non-empty journal — reopening one is :func:`repro.journal.recover`'s
    job, which replays it first and then resumes via
    :meth:`JournalWriter.resume`.

    ``fsync=True`` trades throughput for the strict durability claim;
    the default flushes to the OS on every append, which already
    survives process crashes (the property-test harness's crash model).
    """

    enabled = True

    def __init__(
        self,
        journal_dir: str,
        fsync: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        recorder: Recorder = NULL_RECORDER,
        fresh: bool = True,
    ) -> None:
        if snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        os.makedirs(journal_dir, exist_ok=True)
        path = events_path(journal_dir)
        if fresh and os.path.exists(path) and os.path.getsize(path) > 0:
            raise JournalError(
                f"journal {path!r} already holds records; "
                "recover() it instead of overwriting"
            )
        self.journal_dir = journal_dir
        self.path = path
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.recorder = recorder
        JournalCounts.__init__(self)
        recorder.expose(self)
        self._snapshot_bytes = recorder.gauge(
            "journal_snapshot_bytes", "Encoded size of the most recent snapshot."
        )
        self._appends_since_snapshot = 0
        self._file = open(path, "ab")

    @classmethod
    def resume(
        cls,
        journal_dir: str,
        valid_bytes: int,
        fsync: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        recorder: Recorder = NULL_RECORDER,
    ) -> "JournalWriter":
        """Reopen an existing journal, truncating any torn tail first."""
        path = events_path(journal_dir)
        size = os.path.getsize(path)
        if valid_bytes > size:
            raise JournalError(
                f"valid prefix {valid_bytes} exceeds journal size {size}"
            )
        if valid_bytes < size:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
        return cls(
            journal_dir,
            fsync=fsync,
            snapshot_every=snapshot_every,
            recorder=recorder,
            fresh=False,
        )

    def _write(self, data: bytes) -> None:
        """Append one framed record: write, flush, optionally fsync."""
        self._file.write(data)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self.appends += 1
        self.bytes_written += len(data)

    def append(self, record: Dict[str, object]) -> None:
        self._write(encode_record(record))
        self._appends_since_snapshot += 1

    def maybe_snapshot(self, service) -> None:
        """Append an inline snapshot if due and the service is quiescent."""
        if self._appends_since_snapshot < self.snapshot_every:
            return
        from repro.journal.snapshots import capture_state, is_quiescent

        if not is_quiescent(service):
            return
        from repro.journal.records import snapshot_record

        record = snapshot_record(service.clock.now, capture_state(service))
        data = encode_record(record)
        self._write(data)
        self.snapshots += 1
        self._appends_since_snapshot = 0
        self._snapshot_bytes.set(len(data))

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


class SimulatedCrashError(JournalError):
    """Raised by :class:`CrashingJournal` at its configured crash point."""


class CrashingJournal(JournalSink):
    """Test double: forwards to an inner sink, then dies on append ``n``.

    ``crash_after`` counts successful appends before the crash fires;
    ``before_write=True`` models a crash that loses the triggering
    record entirely (power cut before the write syscall), ``False`` one
    that hits after the bytes reached the log (the record survives but
    the in-memory state transition it preceded is lost).  Once crashed,
    every further use re-raises — a dead process does not journal.
    """

    enabled = True

    def __init__(
        self, inner: JournalSink, crash_after: int, before_write: bool = False
    ) -> None:
        if crash_after < 0:
            raise ValueError("crash_after must be non-negative")
        self.inner = inner
        self.crash_after = crash_after
        self.before_write = before_write
        self.appends = 0
        self.crashed = False

    def append(self, record: Dict[str, object]) -> None:
        if self.crashed:
            raise SimulatedCrashError("journal already crashed")
        if self.appends == self.crash_after:
            self.crashed = True
            if not self.before_write:
                self.inner.append(record)
            raise SimulatedCrashError(
                f"simulated crash at append {self.appends}"
            )
        self.inner.append(record)
        self.appends += 1

    def maybe_snapshot(self, service) -> None:
        if self.crashed:
            raise SimulatedCrashError("journal already crashed")
        self.inner.maybe_snapshot(service)

    def close(self) -> None:
        self.inner.close()
