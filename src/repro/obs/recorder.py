"""The injectable recorder: one handle bundling registry + tracer.

Every instrumented component takes an optional ``recorder`` and defaults
to the module-level :data:`NULL_RECORDER`, whose every operation is a
no-op — the simulator benchmarks pay one attribute read and a falsy
branch (``if recorder.enabled:``) per instrumentation site, nothing more.

A live :class:`Recorder` owns one :class:`~repro.obs.registry.MetricsRegistry`
and one :class:`~repro.obs.tracer.SpanTracer` and writes the combined
run record as JSONL (meta line, span/event lines, one trailing metrics
line) — the file ``python -m repro obs report`` replays.

A service's lifecycle trace is :meth:`Recorder.observe`'s fold over its
journal records (``repro.journal.records``), so ``recover(...,
recorder=...)`` rebuilds the trace of the run it replays.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.obs.schema import TRACE_SCHEMA_VERSION
from repro.obs.tracer import Span, SpanTracer


class Recorder:
    """A live recorder: metrics and spans land in real collectors."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(clock)
        #: The fold's state: the open epoch span, open build spans by key,
        #: and backend worker responses waiting for their build's span.
        self._epoch: Optional[Span] = None
        self._builds: Dict[Tuple, Span] = {}
        self._parked: Dict[Tuple, List[object]] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.tracer.bind_clock(clock)

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

    # -- tracing passthrough -------------------------------------------------

    def start_span(self, name: str, **kwargs) -> Span:
        return self.tracer.start(name, **kwargs)

    def finish_span(self, span: Span, **kwargs) -> Span:
        return self.tracer.finish(span, **kwargs)

    def splice_span(self, name: str, start: float, end: float, **kwargs) -> Span:
        return self.tracer.splice(name, start, end, **kwargs)

    def event(self, name: str, **kwargs):
        return self.tracer.event(name, **kwargs)

    # -- the lifecycle fold ----------------------------------------------------

    def observe(self, record: Mapping[str, object]) -> None:
        """Fold one lifecycle record into the trace.

        An ``epoch`` record opens the epoch span (closing the previous
        one) and closes the builds it aborted; ``build_start`` opens a
        build span under it and ``build_finish`` closes that span with the
        build's outcome; ``worker`` sets the epoch's busy count and every
        ``decision`` counts toward it.  ``submit``, ``decision``,
        ``commit`` and ``batch`` become events; other records trace
        nothing.
        """
        kind, at = record["t"], record["at"]
        if kind == "build_start":
            key = record["key"]
            ident = (key["c"], tuple(key["a"]))
            track = f"change:{key['c']}"
            span = self.start_span(
                "build", category="build", track=track, at=at, parent=self._epoch
            )
            self._builds[ident] = span
            parked = self._parked.get(ident)
            if parked:
                self._splice_worker_spans(span, parked.pop(0), record["duration"])
                if not parked:
                    del self._parked[ident]
        elif kind == "build_finish":
            key = record["key"]
            span = self._builds.pop((key["c"], tuple(key["a"])), None)
            if span is not None:
                self._close(span, at, success=record["success"])
        elif kind == "epoch":
            if self._epoch is not None:
                self._close(self._epoch, at)
            started, aborted = record["started"], record["aborted"]
            self._epoch = self.start_span(
                "epoch",
                category="planner",
                at=at,
                queue_depth=record["queue"],
                builds_started=len(started),
                builds_aborted=len(aborted),
                decisions=0,
            )
            for key in aborted:
                span = self._builds.pop((key["c"], tuple(key["a"])), None)
                if span is not None:
                    self._close(span, at, aborted=True)
        elif kind == "worker":
            self._epoch.attrs["workers_busy"] = record["busy"]
        elif kind == "decision":
            self._epoch.attrs["decisions"] += 1
            self.event(
                "decision",
                category="planner",
                at=at,
                change_id=record["change"],
                verdict="committed" if record["committed"] else "rejected",
                turnaround=record["turnaround"],
            )
        elif kind == "submit":
            change_id = record["change"]["id"]
            self.event("submit", category="service", at=at, change_id=change_id)
        elif kind == "commit":
            attrs = {"change_id": record["change"], "index": record["index"]}
            self.event("commit", category="service", at=at, **attrs)
        elif kind == "batch":
            attrs = {"kind": record["kind"], "depth": record["depth"]}
            size = len(record["members"])
            self.event("batch", category="planner", at=at, size=size, **attrs)

    def _close(self, span: Span, at: float, **attrs: object) -> None:
        """Finish ``span`` unless an export already closed it."""
        if span.end is None:
            self.finish_span(span, at=at, **attrs)

    def park_worker_spans(self, key, response) -> None:
        """Hold a worker's response for ``key`` (a ``BuildKey``) until the
        key's next ``build_start`` opens its span; responses arrive in
        dispatch order, the order of those records."""
        ident = (key.change_id, tuple(sorted(key.assumed)))
        self._parked.setdefault(ident, []).append(response)

    def _splice_worker_spans(self, build: Span, response, duration: float) -> None:
        """Graft a worker's wall-clock spans under ``build``.

        Sim placement is proportional: the build occupies
        ``[start, start + duration]`` in simulated minutes and the
        worker's request occupied ``response.wall_seconds`` of real time,
        so each worker span maps onto the build span by its wall-clock
        fraction — containment under the build span holds by
        construction.  The raw wall-clock edges ride along (epoch seconds,
        ``wall_track`` = the worker process) so the Chrome view shows real
        per-worker-slot occupancy next to simulated time.
        """
        total_wall = response.wall_seconds
        scale = duration / total_wall if total_wall > 0.0 else 0.0
        wall_track = f"worker:pid{response.worker_pid}"
        for span in response.step_spans:
            sim_start = build.start + scale * span.wall_offset
            sim_end = build.start + scale * (span.wall_offset + span.wall_duration)
            wall_start = response.wall_started + span.wall_offset
            self.splice_span(
                span.name,
                start=sim_start,
                end=max(sim_end, sim_start),
                parent_id=build.span_id,
                category="worker",
                track=build.track,
                wall_start=wall_start,
                wall_end=wall_start + span.wall_duration,
                wall_track=wall_track,
                kind=span.kind,
                target=span.target,
                step=span.step,
                worker_pid=response.worker_pid,
            )

    # -- export --------------------------------------------------------------

    def jsonl_records(self) -> List[Dict[str, object]]:
        """Meta + spans + events + metrics, ready to serialize."""
        self.tracer.finish_open()
        records: List[Dict[str, object]] = [
            {
                "type": "meta",
                "version": TRACE_SCHEMA_VERSION,
                "clock": "simulated-minutes",
            }
        ]
        records.extend(self.tracer.snapshot_records())
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
            self.tracer.finish_open()
            json.dump(self.tracer.snapshot_chrome_trace(), handle, indent=1)

    def prometheus_text(self) -> str:
        return self.registry.to_prometheus()


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

_NULL_SPAN = Span(span_id=0, name="null", category="", start=0.0, track="", end=0.0)


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

    def start_span(self, name: str, **kwargs) -> Span:
        return _NULL_SPAN

    def finish_span(self, span: Span, **kwargs) -> Span:
        return span

    def splice_span(self, name: str, start: float, end: float, **kwargs) -> Span:
        return _NULL_SPAN

    def event(self, name: str, **kwargs):
        return None

    def observe(self, record) -> None:
        pass

    def park_worker_spans(self, key, response) -> None:
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
