"""The Chrome ``trace_event`` view of a trace.

A trace is a list of schema-v1 span/event records (:mod:`repro.obs.schema`)
over *simulated* time (minutes, the unit every clock in this repo
speaks).  The service's ``pump`` spans are held by its
:class:`~repro.obs.recorder.Recorder`; its lifecycle spans and events —
epochs, builds, worker steps, decisions — are folded from its journal
records when the trace is read (:func:`repro.obs.recorder.fold`).  The
trace has two export formats:

* JSONL structured events (one JSON object per line) — the durable
  record ``obs report`` replays;
* Chrome ``trace_event`` JSON (:func:`chrome_trace_from_records`) — load
  the file in ``chrome://tracing`` or https://ui.perfetto.dev to scrub
  through a run visually.

Each span carries a ``track`` — the horizontal row it renders on.  Spans
on one track must nest by containment (Chrome's rule for ``X`` events);
the service's pump/epoch loop renders on the ``service`` track and every
build on its change's own track.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Simulated minutes -> trace_event microseconds.
_US_PER_MINUTE = 60_000_000.0

#: Wall-clock seconds -> trace_event microseconds.
_US_PER_SECOND = 1_000_000.0


def chrome_trace_from_records(
    records: List[Dict[str, object]],
) -> Dict[str, object]:
    """Convert JSONL span/event records into a Chrome trace_event dict.

    Shared by the recorder's exports, ``GET /trace`` and the ``obs trace``
    converter (which reads records back from a file).  Tracks become named
    threads of one process; spans become ``X`` (complete) events and
    instants ``i``.

    Spans carrying ``wall_start``/``wall_end`` are rendered *twice*: once
    on process 1 (the simulated-minutes timeline) and once on process 2
    (the wall-clock timeline, microseconds since the earliest wall edge in
    the trace, threaded by ``wall_track`` — per-worker occupancy rows for
    in-worker spans).
    """
    tracks: Dict[str, int] = {}
    wall_tracks: Dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tracks:
            tracks[track] = len(tracks)
        return tracks[track]

    def wall_tid(track: str) -> int:
        if track not in wall_tracks:
            wall_tracks[track] = len(wall_tracks)
        return wall_tracks[track]

    wall_base: Optional[float] = None
    for record in records:
        if record.get("type") == "span" and record.get("wall_start") is not None:
            wall_start = float(record["wall_start"])  # type: ignore[arg-type]
            wall_base = (
                wall_start if wall_base is None else min(wall_base, wall_start)
            )

    trace_events: List[Dict[str, object]] = []
    for record in records:
        if record["type"] == "span":
            start = float(record["start"])  # type: ignore[arg-type]
            end = float(record["end"])  # type: ignore[arg-type]
            args = dict(record.get("attrs") or {})
            args["span_id"] = record["id"]
            if record.get("parent") is not None:
                args["parent_span_id"] = record["parent"]
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": record.get("cat") or "repro",
                    "ph": "X",
                    "ts": start * _US_PER_MINUTE,
                    "dur": (end - start) * _US_PER_MINUTE,
                    "pid": 1,
                    "tid": tid(str(record["track"])),
                    "args": args,
                }
            )
            if record.get("wall_start") is not None and wall_base is not None:
                wall_start = float(record["wall_start"])  # type: ignore[arg-type]
                wall_end = float(record.get("wall_end", wall_start))  # type: ignore[arg-type]
                trace_events.append(
                    {
                        "name": record["name"],
                        "cat": record.get("cat") or "repro",
                        "ph": "X",
                        "ts": (wall_start - wall_base) * _US_PER_SECOND,
                        "dur": (wall_end - wall_start) * _US_PER_SECOND,
                        "pid": 2,
                        "tid": wall_tid(
                            str(record.get("wall_track") or record["track"])
                        ),
                        "args": dict(args),
                    }
                )
        elif record["type"] == "event":
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": record.get("cat") or "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": float(record["at"]) * _US_PER_MINUTE,  # type: ignore[arg-type]
                    "pid": 1,
                    "tid": tid(str(record["track"])),
                    "args": dict(record.get("attrs") or {}),
                }
            )
    for track, thread_id in tracks.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": thread_id,
                "args": {"name": track},
            }
        )
    if wall_tracks:
        # The two-process view only appears when wall capture was on —
        # wall-free traces keep their original single-process shape.
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "simulated clock (minutes)"},
            }
        )
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "wall clock (seconds)"},
            }
        )
        for track, thread_id in wall_tracks.items():
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 2,
                    "tid": thread_id,
                    "args": {"name": track},
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-minutes"},
    }
