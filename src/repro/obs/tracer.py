"""The span tracer: simulated-clock spans with parent-child links.

Spans are intervals of *simulated* time (minutes, the unit every clock in
this repo speaks): an epoch, a speculative build, a pump, a head advance.
Two export formats:

* JSONL structured events (one JSON object per line; schema in
  :mod:`repro.obs.schema`) — the durable record ``obs report`` replays;
* Chrome ``trace_event`` JSON — load the file in ``chrome://tracing`` or
  https://ui.perfetto.dev to scrub through a run visually.

Every parent is explicit: :meth:`SpanTracer.start` takes the ``parent``
span and :meth:`SpanTracer.splice` its ``parent_id``; a span given none is
a root, and an event belongs to no span.  A span may outlive its parent
(a speculative build crosses epoch boundaries; its ``parent_id`` still
records the epoch that started it).

Each span carries a ``track`` — the horizontal row it renders on.  Spans
on one track must nest by containment (Chrome's rule for ``X`` events);
the instrumentation puts the service's pump/epoch loop on the ``service``
track and every build on its change's own track.

Spans can additionally carry *wall-clock* timestamps.  Spans spliced
from a worker process (:meth:`SpanTracer.splice`) record
``wall_start``/``wall_end`` alongside the simulated interval, and the
Chrome export renders those on a second process ("wall clock") so a
single Perfetto view shows both timelines.  Wall edges are NaN-safe: a
non-finite value records nothing for that edge, and non-finite values
never reach the JSONL export (strict JSON has no NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import TraceError

#: Simulated minutes -> trace_event microseconds.
_US_PER_MINUTE = 60_000_000.0

#: Wall-clock seconds -> trace_event microseconds.
_US_PER_SECOND = 1_000_000.0

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


def _finite_or_none(value: Optional[float]) -> Optional[float]:
    """NaN/inf-safe wall timestamp: anything non-finite records nothing."""
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


@dataclass
class Span:
    """One interval of simulated time (optionally wall time too)."""

    span_id: int
    name: str
    category: str
    start: float
    track: str
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Wall-clock edges (epoch seconds), set only when the span was
    #: spliced with explicit wall timestamps.  ``None`` otherwise.
    wall_start: Optional[float] = None
    wall_end: Optional[float] = None
    #: Track the wall-clock view renders the span on (defaults to ``track``).
    wall_track: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise TraceError(f"span {self.name}#{self.span_id} still open")
        return self.end - self.start


@dataclass(frozen=True)
class Event:
    """An instant (zero-duration) occurrence."""

    event_id: int
    name: str
    category: str
    at: float
    track: str
    attrs: Dict[str, object]


class SpanTracer:
    """Records spans and instants against a bound simulated clock."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else _zero_clock
        self._spans: List[Span] = []
        self._events: List[Event] = []
        self._next_id = 1

    def bind_clock(self, clock: Clock) -> None:
        """Point the tracer at the owning component's simulated clock."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- recording -----------------------------------------------------------

    def start(
        self,
        name: str,
        category: str = "",
        track: str = "service",
        at: Optional[float] = None,
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        """Open a span under ``parent`` (a root without one); pairs with
        :meth:`finish`."""
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start=self._clock() if at is None else float(at),
            track=track,
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def finish(
        self, span: Span, at: Optional[float] = None, **attrs: object
    ) -> Span:
        """Close a span (idempotence is an error: a span closes once)."""
        if span.end is not None:
            raise TraceError(f"span {span.name}#{span.span_id} already closed")
        end = self._clock() if at is None else float(at)
        if end < span.start:
            raise TraceError(
                f"span {span.name}#{span.span_id} would close before it opened"
            )
        span.end = end
        span.attrs.update(attrs)
        return span

    def splice(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        category: str = "",
        track: str = "service",
        wall_start: Optional[float] = None,
        wall_end: Optional[float] = None,
        wall_track: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Insert an already-timed (closed) span recorded elsewhere.

        The cross-process seam: worker processes measure step intervals on
        their own wall clocks and ship them back; the parent splices them
        into its tracer under the dispatching build span
        (``parent_id``), mapped into simulated time by the caller.  Wall
        timestamps are optional and NaN-safe.
        """
        start = float(start)
        end = float(end)
        if end < start:
            raise TraceError(
                f"spliced span {name} would close before it opened"
            )
        wall_start = _finite_or_none(wall_start)
        wall_end = _finite_or_none(wall_end)
        if wall_start is None or wall_end is None:
            wall_start = wall_end = None
        elif wall_end < wall_start:
            wall_end = wall_start
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start=start,
            track=track,
            end=end,
            parent_id=parent_id,
            attrs=dict(attrs),
            wall_start=wall_start,
            wall_end=wall_end,
            wall_track=wall_track,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def event(
        self,
        name: str,
        category: str = "",
        track: str = "service",
        at: Optional[float] = None,
        **attrs: object,
    ) -> Event:
        """Record an instant occurrence."""
        recorded = Event(
            event_id=self._next_id,
            name=name,
            category=category,
            at=self._clock() if at is None else float(at),
            track=track,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._events.append(recorded)
        return recorded

    def finish_open(self, at: Optional[float] = None) -> int:
        """Close every still-open span (end of run); returns how many."""
        closed = 0
        for span in self._spans:
            if span.end is None:
                self.finish(span, at=at)
                closed += 1
        return closed

    # -- inspection ----------------------------------------------------------

    def spans(self) -> List[Span]:
        return list(self._spans)

    def events(self) -> List[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._spans)

    # -- export --------------------------------------------------------------

    @staticmethod
    def _span_record(span: Span, end: float) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "span",
            "id": span.span_id,
            "name": span.name,
            "cat": span.category,
            "track": span.track,
            "start": span.start,
            "end": end,
            "parent": span.parent_id,
            "attrs": span.attrs,
        }
        # Wall edges are emitted only when both are finite — partial or
        # non-finite captures stay out of the export entirely.
        wall_start = _finite_or_none(span.wall_start)
        wall_end = _finite_or_none(span.wall_end)
        if wall_start is not None and wall_end is not None:
            record["wall_start"] = wall_start
            record["wall_end"] = wall_end
            if span.wall_track is not None:
                record["wall_track"] = span.wall_track
        return record

    @staticmethod
    def _event_record(event: Event) -> Dict[str, object]:
        return {
            "type": "event",
            "id": event.event_id,
            "name": event.name,
            "cat": event.category,
            "track": event.track,
            "at": event.at,
            "attrs": event.attrs,
        }

    def snapshot_records(
        self, at: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """Span/event records in start order: the trace *right now*.

        Open spans are rendered as if they closed at ``at`` (default: the
        current clock) without being mutated — the live observability
        service serves this while a run is still in flight; after
        :meth:`finish_open` it is the run's final record.
        """
        horizon = self._clock() if at is None else float(at)
        records: List[Dict[str, object]] = []
        for span in self._spans:
            end = span.end if span.end is not None else max(horizon, span.start)
            records.append(self._span_record(span, end))
        for event in self._events:
            records.append(self._event_record(event))
        records.sort(key=lambda r: (r.get("start", r.get("at", 0.0)), r["id"]))
        return records

    def snapshot_chrome_trace(self, at: Optional[float] = None) -> Dict[str, object]:
        """Chrome trace of the live (possibly still-running) tracer."""
        return chrome_trace_from_records(self.snapshot_records(at))


def chrome_trace_from_records(
    records: List[Dict[str, object]],
) -> Dict[str, object]:
    """Convert JSONL span/event records into a Chrome trace_event dict.

    Shared by the live tracer and the ``obs trace`` converter (which reads
    records back from a file).  Tracks become named threads of one
    process; spans become ``X`` (complete) events and instants ``i``.

    Spans carrying ``wall_start``/``wall_end`` are rendered *twice*: once
    on process 1 (the simulated-minutes timeline) and once on process 2
    (the wall-clock timeline, microseconds since the earliest wall edge in
    the trace, threaded by ``wall_track`` — per-worker occupancy rows for
    spliced in-worker spans).
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
