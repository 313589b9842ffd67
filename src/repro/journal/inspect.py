"""Human-facing journal inspection: summaries and structural verification.

Backs ``python -m repro journal inspect|verify``.  Output is fully
deterministic for a given journal file so tests (and the golden-journal
fixture) can assert on it verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import JournalCorruptError, JournalError
from repro.journal import records as rec
from repro.journal.recovery import read_journal, recover
from repro.journal.sink import events_path
from repro.metrics.summary import RunSummary

#: Stable display order for per-type counts.
_TYPE_ORDER = [
    rec.INIT,
    rec.SUBMIT,
    rec.EPOCH,
    rec.BUILD_START,
    rec.BUILD_FINISH,
    rec.STALL,
    rec.DECISION,
    rec.COMMIT,
    rec.WORKER,
    rec.PUMP_END,
    rec.SNAPSHOT,
]


@dataclass
class JournalSummary:
    """Everything ``inspect`` prints, as data."""

    path: str
    schema_version: int
    records: int
    valid_bytes: int
    torn_tail_bytes: int
    counts: Dict[str, int] = field(default_factory=dict)
    first_at: float = 0.0
    last_at: float = 0.0
    snapshots_at: List[int] = field(default_factory=list)
    #: The run the journal records, folded from its lifecycle records.
    run: Optional[RunSummary] = None


def summarize(journal_dir: str) -> JournalSummary:
    """Scan a journal directory into a :class:`JournalSummary`."""
    path = events_path(journal_dir)
    scanned = read_journal(path)
    records = scanned.records
    torn = 0
    if scanned.torn:
        torn = os.path.getsize(path) - scanned.valid_bytes
    counts: Dict[str, int] = {}
    snapshots_at: List[int] = []
    for index, record in enumerate(records):
        kind = str(record["t"])
        counts[kind] = counts.get(kind, 0) + 1
        if kind == rec.SNAPSHOT:
            snapshots_at.append(index)
    return JournalSummary(
        path=path,
        schema_version=int(records[0]["v"]),
        records=len(records),
        valid_bytes=scanned.valid_bytes,
        torn_tail_bytes=torn,
        counts=counts,
        first_at=float(records[0]["at"]),
        last_at=float(records[-1]["at"]),
        snapshots_at=snapshots_at,
        run=RunSummary.from_records(records),
    )


def format_summary(summary: JournalSummary) -> str:
    """Render a summary as the stable ``inspect`` text block."""
    lines = [
        f"journal: {summary.path}",
        f"schema version: {summary.schema_version}",
        f"records: {summary.records} ({summary.valid_bytes} bytes valid"
        + (
            f", {summary.torn_tail_bytes} torn tail bytes"
            if summary.torn_tail_bytes
            else ""
        )
        + ")",
        f"sim time: {summary.first_at:g} .. {summary.last_at:g} minutes",
    ]
    for kind in _TYPE_ORDER:
        if kind in summary.counts:
            lines.append(f"  {kind:13s} {summary.counts[kind]}")
    for kind in sorted(set(summary.counts) - set(_TYPE_ORDER)):
        lines.append(f"  {kind:13s} {summary.counts[kind]}")
    run = summary.run
    lines.append(f"commits: {run.committed}, rejected: {run.rejected}")
    for name, value in run.contract().items():
        lines.append(f"  {name:22s} {value!r}")
    if summary.snapshots_at:
        positions = ", ".join(str(i) for i in summary.snapshots_at)
        lines.append(f"snapshots at record positions: {positions}")
    else:
        lines.append("snapshots: none")
    return "\n".join(lines)


@dataclass
class VerifyResult:
    """Outcome of ``verify``: structural check plus optional replay."""

    ok: bool
    records: int
    torn_tail_bytes: int
    replayed: Optional[int] = None
    verified: Optional[int] = None
    error: str = ""


def verify_journal(journal_dir: str, replay: bool = False) -> VerifyResult:
    """Check framing + schema; with ``replay=True`` also re-run the log.

    Replay verification runs :func:`repro.journal.recovery.recover` with
    ``attach=False`` so the journal file is never modified.
    """
    path = events_path(journal_dir)
    try:
        scanned = read_journal(path)
    except JournalCorruptError as error:
        return VerifyResult(ok=False, records=0, torn_tail_bytes=0, error=str(error))
    torn = 0
    if scanned.torn:
        torn = os.path.getsize(path) - scanned.valid_bytes
    if not replay:
        return VerifyResult(
            ok=True, records=len(scanned.records), torn_tail_bytes=torn
        )
    try:
        report = recover(journal_dir, attach=False)
    except JournalError as error:
        return VerifyResult(
            ok=False,
            records=len(scanned.records),
            torn_tail_bytes=torn,
            error=str(error),
        )
    return VerifyResult(
        ok=True,
        records=len(scanned.records),
        torn_tail_bytes=torn,
        replayed=report.replayed,
        verified=report.verified,
    )
