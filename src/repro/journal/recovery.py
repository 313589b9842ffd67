"""Replay-based crash recovery: ``recover(journal_dir)``.

Recovery restores a ``CoreService`` in three moves:

1. **read** — frame-scan ``events.jsonl`` (torn tail tolerated, interior
   corruption fatal) and semantically validate the record stream;
2. **restore** — rebuild the service from the latest inline snapshot, or
   from the ``init`` record when none exists;
3. **replay** — re-drive every subsequent *driver* record (submissions,
   build completions, stalls) through the real service code while a
   :class:`ReplayVerifier` sink diffs each record the service re-emits
   against the journal.  Replay is therefore its own oracle: any
   nondeterminism between the crashed run and the recovering one raises
   :class:`~repro.errors.JournalReplayError` instead of silently
   producing a diverged service.  The replaying service has no build
   backend, whatever the crashed one ran under: records are journaled
   at resolution in dispatch order by every service alike, so where the
   builds physically ran left no trace to reproduce.

A crash can also lose records *after* the last applied state transition
(append-then-apply means the journal can run ahead of — never behind —
durable state only by the torn tail).  Records the replay emits past the
journal's end are the regenerated lost suffix; with ``attach=True`` they
are appended to the journal, which then once again describes the state
exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import JournalCorruptError, JournalReplayError
from repro.journal import records as rec
from repro.journal.framing import ScanResult, scan_journal
from repro.journal.sink import (
    DEFAULT_SNAPSHOT_EVERY,
    JournalSink,
    JournalWriter,
    events_path,
)
from repro.journal.snapshots import (
    build_strategy,
    decode_config,
    encode_config,
    rebuild_repo,
    restore_service,
)
from repro.obs.recorder import NULL_RECORDER, Recorder


def read_journal(path: str) -> ScanResult:
    """Frame-scan plus semantic validation of one journal file."""
    if not os.path.exists(path):
        raise JournalCorruptError(f"no journal at {path!r}")
    result = scan_journal(path)
    rec.check_records(result.records)
    return result


class ReplayVerifier(JournalSink):
    """A sink that *checks* appends against the journal instead of writing.

    The cursor walks the journaled records; every record the replaying
    service emits must equal the next journaled one (info records are
    skipped on both sides).  Emissions past the journal's end are
    collected as ``overflow`` — the regenerated tail a crash lost.
    """

    enabled = True

    def __init__(self, records: List[Dict[str, object]], start: int) -> None:
        self._records = records
        self._pos = start
        self.verified = 0
        self.overflow: List[Dict[str, object]] = []

    def _skip_info(self) -> None:
        while (
            self._pos < len(self._records)
            and self._records[self._pos].get("t") in rec.INFO_TYPES
        ):
            self._pos += 1

    def peek_driver(self) -> Optional[Dict[str, object]]:
        """The next journaled input to re-drive, or ``None`` at the end.

        Landing on an *assertion* record here means the service finished
        an input without emitting everything the journal says it did —
        a determinism break, reported as such.
        """
        self._skip_info()
        if self._pos >= len(self._records):
            return None
        record = self._records[self._pos]
        kind = record.get("t")
        if kind not in rec.DRIVER_TYPES:
            raise JournalReplayError(
                f"replay under-produced: journal holds a {kind!r} record "
                f"at position {self._pos} that the service never re-emitted"
            )
        return record

    def append(self, record: Dict[str, object]) -> None:
        self._skip_info()
        if self._pos >= len(self._records):
            self.overflow.append(record)
            return
        expected = self._records[self._pos]
        if record != expected:
            raise JournalReplayError(
                "replay diverged from the journal at position "
                f"{self._pos}: journaled {expected!r}, re-emitted {record!r}"
            )
        self._pos += 1
        self.verified += 1

    def maybe_snapshot(self, service) -> None:
        pass  # snapshots are info records; replay never re-takes them

    def done(self) -> bool:
        self._skip_info()
        return self._pos >= len(self._records)


@dataclass
class RecoveryReport:
    """What one ``recover()`` call did."""

    service: object
    #: Driver records re-driven through the service.
    replayed: int = 0
    #: Assertion records verified bit-identical during replay.
    verified: int = 0
    #: Records regenerated past the journal's end (the lost suffix).
    regenerated: int = 0
    #: Bytes of torn tail dropped from the valid prefix.
    truncated_bytes: int = 0
    snapshot_restored: bool = False
    #: Total records in the valid prefix.
    journal_records: int = 0
    #: ``pump_end`` records in the journal — pumps that ran to completion
    #: before the crash.  A resuming driver re-running a fixed submission
    #: script skips this many pump calls (plus every submission the
    #: recovered service already knows) to land exactly where the crash
    #: interrupted it; re-running a pump *earlier* than its original
    #: script position would drain builds before later lost submissions
    #: re-arrive and diverge from the uninterrupted schedule.
    completed_pumps: int = 0


class _RecoveryMetrics:
    __slots__ = ("recoveries", "replayed", "verified", "truncated")

    def __init__(self, recorder: Recorder) -> None:
        self.recoveries = recorder.counter(
            "journal_recoveries_total", "recover() invocations completed."
        )
        self.replayed = recorder.counter(
            "journal_replayed_records_total",
            "Driver records re-driven during recovery.",
        )
        self.verified = recorder.counter(
            "journal_verified_records_total",
            "Assertion records verified bit-identical during recovery.",
        )
        self.truncated = recorder.counter(
            "journal_truncated_bytes_total",
            "Torn-tail bytes dropped by recovery.",
        )


def recover(
    journal_dir: str,
    strategy=None,
    recorder: Recorder = NULL_RECORDER,
    attach: bool = True,
    fsync: bool = False,
    snapshot_every: Optional[int] = None,
) -> RecoveryReport:
    """Restore a ``CoreService`` from its journal directory.

    ``strategy`` overrides the journaled strategy spec (mandatory when
    the spec is opaque).  With ``attach=True`` the recovered service is
    wired to a resumed :class:`JournalWriter` — the torn tail is
    physically truncated, the regenerated lost suffix appended, and
    subsequent operations journal as if the crash never happened.  With
    ``attach=False`` the journal file is left untouched (verification
    mode) and the recovered service carries the null sink.
    """
    path = events_path(journal_dir)
    scanned = read_journal(path)
    records = scanned.records
    truncated = 0
    if scanned.torn:
        truncated = os.path.getsize(path) - scanned.valid_bytes

    init = records[0]
    config = decode_config(init["config"])
    # Replay re-emits the init record from the decoded config; check it
    # against the keys this version reads (older journals carry one more).
    init["config"] = encode_config(config)
    if strategy is None:
        strategy = build_strategy(init["strategy"])

    snapshot_index = None
    for index in range(len(records) - 1, 0, -1):
        if records[index].get("t") == rec.SNAPSHOT:
            snapshot_index = index
            break

    if snapshot_index is None:
        from dataclasses import replace

        from repro.service.core import CoreService

        verifier = ReplayVerifier(records, start=0)
        repo = rebuild_repo(init["repo"])
        # Constructing the service re-emits the init record; the verifier
        # consumes and checks it like any other assertion record.
        service = CoreService(
            repo,
            strategy,
            config=replace(config, journal=verifier),
            recorder=recorder,
        )
    else:
        service = restore_service(
            records[snapshot_index]["state"],
            config,
            strategy,
            recorder=recorder,
        )
        verifier = ReplayVerifier(records, start=snapshot_index + 1)
        service.attach_journal(verifier)

    replayed = 0
    while True:
        try:
            record = verifier.peek_driver()
        except JournalReplayError:
            # Epoch/build-start/worker records are journaled at
            # *resolution*, so after re-driving the submits that
            # dispatched them the records are still owed.  Resolve and
            # re-peek: the emissions are checked like any others, and with
            # nothing to resolve the re-peek raises the same error.
            service._resolve_builds()
            record = verifier.peek_driver()
        if record is None:
            break
        kind = record["t"]
        if kind == rec.SUBMIT:
            # Enqueued submissions are journaled at their *fire* time,
            # which can sit between build completions; advance the clock
            # so the re-emitted record's timestamp matches (a no-op for
            # submissions journaled at the current time).
            service.clock.advance_to(record["at"])
            service.submit(rec.decode_change(record["change"]))
        else:  # BUILD_FINISH or STALL: both advance the event loop one step
            service._step(guard=None)
        replayed += 1

    if attach:
        writer = JournalWriter.resume(
            journal_dir,
            valid_bytes=scanned.valid_bytes,
            fsync=fsync,
            snapshot_every=snapshot_every
            if snapshot_every is not None
            else DEFAULT_SNAPSHOT_EVERY,
            recorder=recorder,
        )
        for lost in verifier.overflow:
            writer.append(lost)
        service.attach_journal(writer)
    else:
        service.attach_journal(None)

    if recorder.enabled:
        metrics = _RecoveryMetrics(recorder)
        metrics.recoveries.inc()
        metrics.replayed.inc(replayed)
        metrics.verified.inc(verifier.verified)
        if truncated:
            metrics.truncated.inc(truncated)

    return RecoveryReport(
        service=service,
        replayed=replayed,
        verified=verifier.verified,
        regenerated=len(verifier.overflow),
        truncated_bytes=truncated,
        snapshot_restored=snapshot_index is not None,
        journal_records=len(records),
        completed_pumps=sum(1 for r in records if r.get("t") == rec.PUMP_END),
    )
