"""The injectable recorder: one handle bundling metrics and the trace.

Every instrumented component takes an optional ``recorder`` and defaults
to the module-level :data:`NULL_RECORDER`, whose every operation is a
no-op — the simulator benchmarks pay one attribute read and a falsy
branch (``if recorder.enabled:``) per instrumentation site, nothing more.

A live :class:`Recorder` owns one :class:`~repro.obs.registry.MetricsRegistry`,
the service's ``pump`` spans (schema-v1 span dicts, stamped by a bound
simulated clock) and the service's journal records
(``repro.journal.records``), kept as :meth:`Recorder.event` takes them.
The trace is :func:`fold` over those records, run when it is read (:meth:`Recorder.trace`), so ``recover(...,
recorder=...)`` rebuilds the trace of the run it replays.  The combined
run record is written as JSONL (meta line, span/event lines, one trailing
metrics line) — the file ``python -m repro obs report`` replays.
"""

from __future__ import annotations

import json
import math
from itertools import count
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.obs.registry import MetricsRegistry
from repro.obs.schema import TRACE_SCHEMA_VERSION
from repro.obs.tracer import chrome_trace_from_records

Clock = Callable[[], float]


class Recorder:
    """A live recorder: metrics land in a registry, ``pump`` spans in
    :attr:`tracer`, and lifecycle records in :attr:`records`."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.registry = MetricsRegistry()
        self._clock: Clock = clock if clock is not None else lambda: 0.0
        #: The ``pump`` spans, as the trace prints them (ids 1..n).
        self.tracer: List[Dict[str, object]] = []
        #: The lifecycle records :meth:`event` took, in emission order.
        self.records: List[Mapping[str, object]] = []
        #: Worker responses by the position of the ``build_start`` record
        #: they came back for.
        self._workers: Dict[int, object] = {}

    def bind_clock(self, clock: Clock) -> None:
        """Point span stamps and the trace horizon at the owner's
        simulated clock."""
        self._clock = clock

    def now(self) -> float:
        """The bound clock's reading: the horizon of a read made now."""
        return self._clock()

    # -- metrics passthrough -------------------------------------------------

    def counter(self, name: str, help: str = "", labels=None):
        return self.registry.counter(name, help, labels)

    def gauge(self, name: str, help: str = "", labels=None):
        return self.registry.gauge(name, help, labels)

    def histogram(self, name: str, help: str = "", labels=None, buckets=None):
        return self.registry.histogram(name, help, labels, buckets)

    def expose(self, stats) -> None:
        """Publish a stats dataclass's ``metric_field`` counts."""
        self.registry.expose(stats)

    # -- pump spans ----------------------------------------------------------

    def start_span(
        self, name: str, category: str = "", track: str = "service", **attrs
    ) -> Dict[str, object]:
        """Open a root span now; :meth:`finish_span` closes it."""
        span = _span(
            len(self.tracer) + 1, name, category, track, self._clock(), None, attrs
        )
        self.tracer.append(span)
        return span

    def finish_span(self, span: Dict[str, object], **attrs) -> Dict[str, object]:
        """Close a span now, merging ``attrs`` (a span closes once)."""
        if span["end"] is not None:
            raise TraceError(f"span {span['name']}#{span['id']} already closed")
        span["end"] = self._clock()
        span["attrs"].update(attrs)
        return span

    # -- lifecycle records -----------------------------------------------------

    def event(self, record: Mapping[str, object]) -> None:
        """Keep one lifecycle record as is."""
        self.records.append(record)

    def attach_worker(self, response) -> None:
        """Keep a traced worker response with the ``build_start`` record
        just taken: the trace renders its spans under that build."""
        self._workers[len(self.records) - 1] = response

    def trace(self, at: Optional[float] = None) -> List[Dict[str, object]]:
        """Span/event records of the run so far: :func:`fold` with spans
        still open ending at ``at`` (default: the current clock)."""
        horizon = self.now() if at is None else float(at)
        return fold(self.records, self._workers, self.tracer, horizon)

    # -- export --------------------------------------------------------------

    def jsonl_records(self) -> List[Dict[str, object]]:
        """Meta + spans + events + metrics, ready to serialize."""
        records: List[Dict[str, object]] = [
            {
                "type": "meta",
                "version": TRACE_SCHEMA_VERSION,
                "clock": "simulated-minutes",
            }
        ]
        records.extend(self.trace())
        records.append({"type": "metrics", "metrics": self.registry.to_json()})
        return records

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.jsonl_records()
        ) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace_from_records(self.trace()), handle, indent=1)

    def prometheus_text(self) -> str:
        return self.registry.to_prometheus()


# -- the trace fold ------------------------------------------------------------


def fold(
    records: Sequence[Mapping[str, object]],
    workers: Mapping[int, object],
    pump_spans: Sequence[Mapping[str, object]],
    horizon: float,
) -> List[Dict[str, object]]:
    """The trace of lifecycle ``records``: schema-v1 span/event dicts
    (:mod:`repro.obs.schema`), copies of ``pump_spans`` included, sorted
    by ``(start | at, id)``.

    An ``epoch`` record opens the epoch span (closing the previous one)
    and closes the builds it aborted; ``build_start`` opens a build span
    under it, with the spans of the worker response ``workers`` holds
    under its position as children, and ``build_finish`` closes that span
    with the build's outcome; ``worker`` sets the epoch's busy count and
    every ``decision`` counts toward it.  ``submit``, ``decision``,
    ``commit`` and ``batch`` become events; other records trace nothing.
    A span still open ends at ``max(horizon, start)``.  Nothing passed in
    is changed, so every read folds the same records afresh.
    """
    ids = count(len(pump_spans) + 1)
    out = [{**span, "attrs": dict(span["attrs"])} for span in pump_spans]

    def open_span(name, category, track, at, parent, **attrs):
        parent_id = parent["id"] if parent is not None else None
        span = _span(next(ids), name, category, track, at, parent_id, attrs)
        out.append(span)
        return span

    def close(span, at, **attrs):
        span["end"] = at
        span["attrs"].update(attrs)

    def instant(name, category, at, **attrs):
        out.append(
            {
                "type": "event",
                "id": next(ids),
                "name": name,
                "cat": category,
                "track": "service",
                "at": at,
                "attrs": attrs,
            }
        )

    epoch: Optional[Dict[str, object]] = None
    builds: Dict[Tuple, Dict[str, object]] = {}
    for position, record in enumerate(records):
        kind, at = record["t"], float(record["at"])
        if kind == "build_start":
            key = record["key"]
            build = open_span("build", "build", f"change:{key['c']}", at, epoch)
            builds[key["c"], tuple(key["a"])] = build
            response = workers.get(position)
            if response is not None:
                out.extend(_worker_spans(ids, build, response, record["duration"]))
        elif kind == "build_finish":
            key = record["key"]
            build = builds.pop((key["c"], tuple(key["a"])), None)
            if build is not None:
                close(build, at, success=record["success"])
        elif kind == "epoch":
            if epoch is not None:
                close(epoch, at)
            started, aborted = record["started"], record["aborted"]
            epoch = open_span(
                "epoch",
                "planner",
                "service",
                at,
                None,
                queue_depth=record["queue"],
                builds_started=len(started),
                builds_aborted=len(aborted),
                decisions=0,
            )
            for key in aborted:
                build = builds.pop((key["c"], tuple(key["a"])), None)
                if build is not None:
                    close(build, at, aborted=True)
        elif kind == "worker":
            epoch["attrs"]["workers_busy"] = record["busy"]
        elif kind == "decision":
            epoch["attrs"]["decisions"] += 1
            instant(
                "decision",
                "planner",
                at,
                change_id=record["change"],
                verdict="committed" if record["committed"] else "rejected",
                turnaround=record["turnaround"],
            )
        elif kind == "submit":
            instant("submit", "service", at, change_id=record["change"]["id"])
        elif kind == "commit":
            attrs = {"change_id": record["change"], "index": record["index"]}
            instant("commit", "service", at, **attrs)
        elif kind == "batch":
            attrs = {"kind": record["kind"], "depth": record["depth"]}
            instant("batch", "planner", at, size=len(record["members"]), **attrs)
    for span in out:
        if span["type"] == "span" and span["end"] is None:
            span["end"] = max(horizon, span["start"])
    out.sort(key=lambda r: (r.get("start", r.get("at")), r["id"]))
    return out


def _span(span_id, name, category, track, start, parent, attrs, end=None):
    return {
        "type": "span",
        "id": span_id,
        "name": name,
        "cat": category,
        "track": track,
        "start": start,
        "end": end,
        "parent": parent,
        "attrs": attrs,
    }


def _worker_spans(ids, build, response, duration: float):
    """A worker's wall-clock spans as children of ``build``.

    Sim placement is proportional: the build occupies
    ``[start, start + duration]`` in simulated minutes and the worker's
    request occupied ``response.wall_seconds`` of real time, so each
    worker span maps onto the build span by its wall-clock fraction —
    containment under the build span holds by construction (an inverted
    interval clamps to zero width).  The raw wall-clock edges ride along
    (epoch seconds, ``wall_track`` = the worker process) so the Chrome
    view shows real per-worker-slot occupancy next to simulated time; a
    missing or non-finite edge drops the pair (strict JSON has no NaN).
    """
    start, track = build["start"], build["track"]
    total_wall = response.wall_seconds
    scale = duration / total_wall if total_wall > 0.0 else 0.0
    for step in response.step_spans:
        sim_start = start + scale * step.wall_offset
        sim_end = start + scale * (step.wall_offset + step.wall_duration)
        attrs = {
            "kind": step.kind,
            "target": step.target,
            "step": step.step,
            "worker_pid": response.worker_pid,
        }
        span = _span(
            next(ids),
            step.name,
            "worker",
            track,
            sim_start,
            build["id"],
            attrs,
            max(sim_end, sim_start),
        )
        try:
            wall_start = float(response.wall_started) + step.wall_offset
            wall_end = wall_start + step.wall_duration
        except TypeError:
            wall_start = wall_end = math.nan
        if math.isfinite(wall_start) and math.isfinite(wall_end):
            span["wall_start"] = wall_start
            span["wall_end"] = max(wall_end, wall_start)
            span["wall_track"] = f"worker:pid{response.worker_pid}"
        yield span


class _NullMetric:
    """Absorbs every counter/gauge/histogram operation."""

    __slots__ = ()

    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRecorder(Recorder):
    """The default recorder: every operation is a cheap no-op.

    Instrumented hot paths additionally guard on :attr:`enabled`, so in
    the common case none of these methods is even called.
    """

    enabled = False

    def __init__(self) -> None:  # no registry/tracer allocation
        self.registry = None  # type: ignore[assignment]
        self.tracer = None  # type: ignore[assignment]

    def bind_clock(self, clock) -> None:
        pass

    def counter(self, name: str, help: str = "", labels=None):
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", labels=None):
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", labels=None, buckets=None):
        return _NULL_METRIC

    def expose(self, stats) -> None:
        pass

    def start_span(self, name: str, **kwargs) -> None:
        return None

    def finish_span(self, span, **attrs):
        return span

    def event(self, record) -> None:
        pass

    def jsonl_records(self) -> List[Dict[str, object]]:
        return []

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path: str) -> None:
        raise ValueError("NullRecorder records nothing; attach a Recorder")

    def write_chrome_trace(self, path: str) -> None:
        raise ValueError("NullRecorder records nothing; attach a Recorder")

    def prometheus_text(self) -> str:
        return ""


#: Shared default: components store this when no recorder is injected.
NULL_RECORDER = NullRecorder()
