"""The injectable recorder: one handle bundling registry + tracer.

Every instrumented component takes an optional ``recorder`` and defaults
to the module-level :data:`NULL_RECORDER`, whose every operation is a
no-op — the simulator benchmarks pay one attribute read and a falsy
branch (``if recorder.enabled:``) per instrumentation site, nothing more.

A live :class:`Recorder` owns one :class:`~repro.obs.registry.MetricsRegistry`
and one :class:`~repro.obs.tracer.SpanTracer` and writes the combined
run record as JSONL (meta line, span/event lines, one trailing metrics
line) — the file ``python -m repro obs report`` replays.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Span, SpanTracer

#: Version stamp for the JSONL trace schema (see repro.obs.schema).
TRACE_SCHEMA_VERSION = 1


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

    def span(self, name: str, **kwargs):
        return self.tracer.span(name, **kwargs)

    def start_span(self, name: str, **kwargs) -> Span:
        return self.tracer.start(name, **kwargs)

    def finish_span(self, span: Span, **kwargs) -> Span:
        return self.tracer.finish(span, **kwargs)

    def splice_span(self, name: str, start: float, end: float, **kwargs) -> Span:
        return self.tracer.splice(name, start, end, **kwargs)

    def event(self, name: str, **kwargs):
        return self.tracer.event(name, **kwargs)

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
        records.extend(self.tracer.to_jsonl_records())
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
            json.dump(self.tracer.to_chrome_trace(), handle, indent=1)

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

    @contextmanager
    def span(self, name: str, **kwargs) -> Iterator[Span]:
        yield _NULL_SPAN

    def start_span(self, name: str, **kwargs) -> Span:
        return _NULL_SPAN

    def finish_span(self, span: Span, **kwargs) -> Span:
        return span

    def splice_span(self, name: str, start: float, end: float, **kwargs) -> Span:
        return _NULL_SPAN

    def event(self, name: str, **kwargs):
        return None

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
