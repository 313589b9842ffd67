"""The JSONL trace schema, and a validator for it.

A trace file is newline-delimited JSON.  Line 1 is a ``meta`` record;
span and event records follow in simulated-time order; the last line is a
single ``metrics`` record (the registry dump).  All times are simulated
minutes.

Record shapes (version 1)::

    {"type": "meta", "version": 1, "clock": "simulated-minutes"}

    {"type": "span", "id": int, "name": str, "cat": str, "track": str,
     "start": float, "end": float, "parent": int | null, "attrs": {...},
     # optional wall-clock capture (epoch seconds; both present or neither):
     "wall_start": float, "wall_end": float, "wall_track": str}

    {"type": "event", "id": int, "name": str, "cat": str, "track": str,
     "at": float, "attrs": {...}}

    {"type": "metrics", "metrics": {name: {"kind": "counter" | "gauge" |
     "histogram", "help": str, "series": [...]}}}

Every span's ``parent`` is set explicitly by whoever opened it; an event
belongs to no span.  Traces written before events lost their ``"span"``
key carry ``"span": null`` on every event; readers ignore it.

A service's lifecycle spans and events are folded from its journal
records when the trace is read (``repro.obs.recorder.fold``), one per
record that says something:

* ``epoch`` span (track ``service``) per ``epoch`` record — a plan that
  starts or aborts nothing has no record and gets no span.  It runs to
  the next epoch record; attrs ``queue_depth``, ``builds_started``,
  ``builds_aborted``, ``workers_busy`` (after its starts) and
  ``decisions`` (made while it was the latest epoch);
* ``build`` span (track ``change:<id>``, parent: its epoch) from
  ``build_start`` to ``build_finish`` (attr ``success``) or to the epoch
  that aborted it (attr ``aborted``);
* ``submit``, ``decision`` (``change_id``, ``verdict``, ``turnaround``),
  ``commit`` (``change_id``, ``index``) and ``batch`` (``kind``,
  ``size``, ``depth``) events.

``pump`` spans (the recorder's, ids ``1..n`` in the order they opened)
and the wall-clock ``worker`` spans a build's worker response adds under
its span are the only spans no record describes.  The other ids are
assigned in fold order, from ``n + 1``.

Validation is hand-rolled (no jsonschema dependency): structural checks
plus the cross-record invariants that make a trace *replayable* — unique
span ids, parents that exist and start no later than their children, and
spans that end no earlier than they start.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

TRACE_SCHEMA_VERSION = 1

_SPAN_KEYS = {"type", "id", "name", "cat", "track", "start", "end", "parent", "attrs"}
_EVENT_KEYS = {"type", "id", "name", "cat", "track", "at", "attrs"}
_METRIC_KINDS = {"counter", "gauge", "histogram"}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_records(records: Iterable[Dict[str, object]]) -> List[str]:
    """Validate parsed trace records; returns a list of error strings."""
    errors: List[str] = []
    span_ids: Dict[int, float] = {}  # id -> start
    deferred_parents: List[Tuple[int, int, Optional[int], float]] = []
    saw_meta = saw_metrics = False

    for index, record in enumerate(records):
        where = f"record {index}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        kind = record.get("type")
        if index == 0:
            if kind != "meta":
                errors.append(f"{where}: first record must be type 'meta'")
            else:
                saw_meta = True
                if record.get("version") != TRACE_SCHEMA_VERSION:
                    errors.append(
                        f"{where}: unsupported version {record.get('version')!r}"
                    )
                if record.get("clock") != "simulated-minutes":
                    errors.append(f"{where}: unknown clock {record.get('clock')!r}")
            continue
        if saw_metrics:
            errors.append(f"{where}: records after the trailing 'metrics' line")
            continue
        if kind == "span":
            missing = _SPAN_KEYS - set(record)
            if missing:
                errors.append(f"{where}: span missing keys {sorted(missing)}")
                continue
            if not isinstance(record["id"], int):
                errors.append(f"{where}: span id must be an int")
                continue
            span_id = record["id"]
            if span_id in span_ids:
                errors.append(f"{where}: duplicate span id {span_id}")
            if not isinstance(record["name"], str) or not record["name"]:
                errors.append(f"{where}: span name must be a non-empty string")
            if not _is_number(record["start"]) or not _is_number(record["end"]):
                errors.append(f"{where}: span start/end must be numbers")
                continue
            start, end = float(record["start"]), float(record["end"])
            if end < start:
                errors.append(
                    f"{where}: span {span_id} ends ({end}) before it starts "
                    f"({start})"
                )
            if not isinstance(record.get("attrs"), dict):
                errors.append(f"{where}: span attrs must be an object")
            has_wall_start = "wall_start" in record
            has_wall_end = "wall_end" in record
            if has_wall_start != has_wall_end:
                errors.append(
                    f"{where}: span wall_start/wall_end must appear together"
                )
            elif has_wall_start:
                if not _is_number(record["wall_start"]) or not _is_number(
                    record["wall_end"]
                ):
                    errors.append(
                        f"{where}: span wall_start/wall_end must be numbers"
                    )
                elif float(record["wall_end"]) < float(record["wall_start"]):
                    errors.append(
                        f"{where}: span {span_id} wall_end precedes wall_start"
                    )
            if "wall_track" in record:
                if not has_wall_start:
                    errors.append(
                        f"{where}: span wall_track requires wall timestamps"
                    )
                if not isinstance(record["wall_track"], str):
                    errors.append(f"{where}: span wall_track must be a string")
            span_ids[span_id] = start
            parent = record.get("parent")
            if parent is not None and not isinstance(parent, int):
                errors.append(f"{where}: span parent must be an int or null")
            else:
                deferred_parents.append((index, span_id, parent, start))
        elif kind == "event":
            missing = _EVENT_KEYS - set(record)
            if missing:
                errors.append(f"{where}: event missing keys {sorted(missing)}")
                continue
            if not _is_number(record["at"]):
                errors.append(f"{where}: event at must be a number")
            if not isinstance(record["name"], str) or not record["name"]:
                errors.append(f"{where}: event name must be a non-empty string")
            if not isinstance(record.get("attrs"), dict):
                errors.append(f"{where}: event attrs must be an object")
        elif kind == "metrics":
            saw_metrics = True
            metrics = record.get("metrics")
            if not isinstance(metrics, dict):
                errors.append(f"{where}: metrics payload must be an object")
                continue
            for name, family in metrics.items():
                if not isinstance(family, dict):
                    errors.append(f"{where}: metric {name} must be an object")
                    continue
                if family.get("kind") not in _METRIC_KINDS:
                    errors.append(
                        f"{where}: metric {name} has unknown kind "
                        f"{family.get('kind')!r}"
                    )
                if not isinstance(family.get("series"), list):
                    errors.append(f"{where}: metric {name} series must be a list")
        elif kind == "meta":
            errors.append(f"{where}: duplicate meta record")
        else:
            errors.append(f"{where}: unknown record type {kind!r}")

    if not saw_meta:
        errors.append("trace has no meta record")
    if not saw_metrics:
        errors.append("trace has no trailing metrics record")
    for index, span_id, parent, start in deferred_parents:
        if parent is None:
            continue
        if parent not in span_ids:
            errors.append(
                f"record {index}: span {span_id} parent {parent} does not exist"
            )
        elif span_ids[parent] > start:
            errors.append(
                f"record {index}: span {span_id} starts before its parent "
                f"{parent}"
            )
    return errors


def validate_jsonl(text: str) -> List[str]:
    """Validate raw JSONL trace content."""
    records: List[Dict[str, object]] = []
    errors: List[str] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            errors.append(f"line {line_number}: invalid JSON ({exc.msg})")
    if not records and not errors:
        errors.append("trace is empty")
    return errors + validate_records(records)


def validate_file(path: str) -> List[str]:
    """Validate a JSONL trace file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_jsonl(handle.read())
