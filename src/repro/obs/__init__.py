"""Observability: metrics registry, sim-clock tracing, run inspection.

The layer every other subsystem reports through (and the foundation the
perf/fault-injection roadmap items build on):

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
  labeled histograms; Prometheus text + JSON exposition;
* :class:`~repro.obs.recorder.Recorder` — the injectable bundle of a
  registry, the service's simulated-clock ``pump`` spans and its
  lifecycle records; :meth:`~repro.obs.recorder.Recorder.trace` folds
  them (epoch/build spans, worker step spans under a build, decision
  events) into the JSONL trace when it is read;
* :mod:`repro.obs.tracer` — the Chrome ``trace_event`` conversion;
  :data:`~repro.obs.recorder.NULL_RECORDER` is the zero-cost default;
* :mod:`repro.obs.schema` — the JSONL trace schema and validator;
* :mod:`repro.obs.slo` — rolling-window SLO aggregation (turnaround
  percentiles, speculation hit rate, worker utilization) for the HTTP
  observability service, folded from the recorder's lifecycle records
  by :class:`~repro.metrics.summary.RunSummary`, not from the trace
  (imported lazily: it needs numpy);
* :mod:`repro.obs.inspect` — the ``obs report``/``obs trace`` CLI
  machinery.

Everything but :mod:`repro.obs.slo` uses only the standard library, and
the simulation path already needs numpy, so attaching a recorder adds no
dependency.
"""

from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
]
