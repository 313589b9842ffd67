"""Change-stream persistence: record once, replay everywhere.

The paper's evaluation replays the *same* recorded changes at different
rates so every approach sees identical inputs (section 8.1).  This module
gives streams the same property across processes: serialize a timed
stream to CSV, load it back bit-identically, and re-time it to a
different ingestion rate while preserving arrival order and all labels.

One row per change in Snippet 2's five-column shape (SNIPPETS.md), the
header ``bench/fixtures.py`` writes its fixtures under too::

    request_id,arrival_offset,mode,priority,body_json

``request_id`` is the change id, ``arrival_offset`` the arrival in
simulated minutes, ``mode``/``priority`` are ``interactive``/``mid``
(the queue has no other kind yet), and ``body_json`` is the change as
the journal encodes it (:func:`repro.journal.records.encode_change`:
developer, ground truth, features, patch and all).
"""

from __future__ import annotations

import csv
import json
from typing import List, Sequence, TextIO, Tuple

from repro.changes.change import Change
from repro.errors import WorkloadError
from repro.journal.records import decode_change, encode_change

HEADER = ("request_id", "arrival_offset", "mode", "priority", "body_json")

Stream = List[Tuple[float, Change]]


def dump_stream(stream: Sequence[Tuple[float, Change]], fp: TextIO) -> None:
    """Serialize a timed stream as CSV, one change per row."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(HEADER)
    for arrival, change in stream:
        writer.writerow(
            (
                change.change_id,
                repr(float(arrival)),
                "interactive",
                "mid",
                json.dumps(encode_change(change), separators=(",", ":")),
            )
        )


def load_stream(fp: TextIO) -> Stream:
    """Load a stream written by :func:`dump_stream`, in arrival order.

    Anything else — another header (the old JSON document has none), a
    short row, a body that is not this change — raises
    :class:`~repro.errors.WorkloadError`.
    """
    reader = csv.reader(fp)
    if tuple(next(reader, ())) != HEADER:
        raise WorkloadError(f"stream CSV must start with the header {HEADER}")
    stream: Stream = []
    for row in reader:
        if len(row) != len(HEADER):
            raise WorkloadError(f"stream row has {len(row)} columns: {row[:2]!r}")
        change = decode_change(json.loads(row[4]))
        if change.change_id != row[0]:
            raise WorkloadError(
                f"row {row[0]!r} carries change {change.change_id!r}"
            )
        stream.append((float(row[1]), change))
    stream.sort(key=lambda item: item[0])
    return stream


def retime_stream(stream: Sequence[Tuple[float, Change]],
                  rate_per_hour: float) -> Stream:
    """Re-space arrivals to a new average rate, preserving order.

    This is exactly how the paper varies ingestion rate over one recorded
    trace: "the only difference with the real data is the inter-arrival
    time between two changes in order to maintain a fixed incoming rate."
    Relative gaps are rescaled uniformly; labels and durations are shared
    with the input (changes are not copied).
    """
    if rate_per_hour <= 0:
        raise WorkloadError("rate must be positive")
    if not stream:
        return []
    ordered = sorted(stream, key=lambda item: item[0])
    count = len(ordered)
    span = ordered[-1][0] - ordered[0][0]
    target_span = (count - 1) * 60.0 / rate_per_hour
    start = ordered[0][0]
    retimed: Stream = []
    for index, (arrival, change) in enumerate(ordered):
        if span > 0:
            new_arrival = (arrival - start) / span * target_span
        else:
            new_arrival = index * 60.0 / rate_per_hour
        change.submitted_at = new_arrival
        retimed.append((new_arrival, change))
    return retimed
