"""The epoch-state inspector: replay a recorded trace as a report.

``python -m repro obs report run.jsonl`` renders the paper's section-6
epoch loop from a trace file: one row per ``epoch`` record, i.e. per
planner epoch that started or aborted builds (queue depth, busy workers
after its starts, builds started/aborted, decisions until the next one),
sparkline trends across the run, the build-span duration distribution,
and the headline metric series from the trailing registry dump.

``python -m repro obs trace run.jsonl -o run.trace.json`` converts the
same file into Chrome ``trace_event`` JSON for chrome://tracing/Perfetto.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import TraceError
from repro.metrics.ascii_plot import sparkline
from repro.obs.tracer import chrome_trace_from_records


@dataclass
class TraceData:
    """A parsed JSONL trace: meta, spans, events, and the metrics dump."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    def spans_named(self, name: str) -> List[Dict[str, object]]:
        return [span for span in self.spans if span["name"] == name]

    def to_chrome_trace(self) -> Dict[str, object]:
        return chrome_trace_from_records(self.spans + self.events)


def load_trace(path: str) -> TraceData:
    """Parse a JSONL trace file (validate separately via repro.obs.schema)."""
    data = TraceData()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_number}: invalid JSON ({exc.msg})")
            kind = record.get("type")
            if kind == "meta":
                data.meta = record
            elif kind == "span":
                data.spans.append(record)
            elif kind == "event":
                data.events.append(record)
            elif kind == "metrics":
                data.metrics = record.get("metrics", {})
    return data


def _attr_series(
    spans: Sequence[Dict[str, object]], attr: str
) -> List[float]:
    out: List[float] = []
    for span in spans:
        attrs = span.get("attrs") or {}
        value = attrs.get(attr)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append(float(value))
    return out


def _metric_value(metrics: Dict[str, object], name: str) -> Optional[float]:
    family = metrics.get(name)
    if not isinstance(family, dict):
        return None
    total = 0.0
    seen = False
    for series in family.get("series", []):  # type: ignore[union-attr]
        value = series.get("value")
        if isinstance(value, (int, float)):
            total += float(value)
            seen = True
    return total if seen else None


def _histogram_summary(metrics: Dict[str, object], name: str) -> Optional[str]:
    family = metrics.get(name)
    if not isinstance(family, dict) or family.get("kind") != "histogram":
        return None
    count = 0
    total = 0.0
    counts_union: List[float] = []
    buckets: List[float] = []
    for series in family.get("series", []):  # type: ignore[union-attr]
        count += int(series.get("count", 0))
        total += float(series.get("sum", 0.0))
        if not buckets:
            buckets = [float(b) for b in series.get("buckets", [])]
            counts_union = [float(c) for c in series.get("counts", [])]
        else:
            for index, c in enumerate(series.get("counts", [])):
                counts_union[index] += float(c)
    if count == 0:
        return None
    mean = total / count
    shape = sparkline(counts_union) if counts_union else ""
    return f"n={count} mean={mean:.1f} dist {shape}"


def format_report(trace: TraceData, max_epochs: int = 40) -> str:
    """The human-readable epoch-by-epoch report for one trace."""
    lines: List[str] = []
    epochs = sorted(trace.spans_named("epoch"), key=lambda s: float(s["start"]))  # type: ignore[arg-type]
    builds = trace.spans_named("build")
    pumps = trace.spans_named("pump")

    lines.append("== observability report ==")
    clock = trace.meta.get("clock", "simulated-minutes")
    lines.append(
        f"trace: {len(trace.spans)} spans, {len(trace.events)} events, "
        f"clock {clock}"
    )
    if pumps:
        first = min(float(p["start"]) for p in pumps)  # type: ignore[arg-type]
        last = max(float(p["end"]) for p in pumps)  # type: ignore[arg-type]
        lines.append(
            f"pumps: {len(pumps)} covering [{first:g}, {last:g}] min"
        )

    if epochs:
        lines.append("")
        lines.append(f"-- epoch loop ({len(epochs)} epochs) --")
        header = (
            f"{'epoch':>5}  {'t_start':>8}  {'queue':>5}  {'busy':>4}  "
            f"{'started':>7}  {'aborted':>7}  {'decided':>7}"
        )
        lines.append(header)
        shown = epochs if len(epochs) <= max_epochs else epochs[:max_epochs]
        for number, span in enumerate(shown, start=1):
            attrs = span.get("attrs") or {}
            lines.append(
                f"{number:>5}  "
                f"{float(span['start']):>8.1f}  "  # type: ignore[arg-type]
                f"{attrs.get('queue_depth', '-'):>5}  "
                f"{attrs.get('workers_busy', '-'):>4}  "
                f"{attrs.get('builds_started', '-'):>7}  "
                f"{attrs.get('builds_aborted', '-'):>7}  "
                f"{attrs.get('decisions', '-'):>7}"
            )
        if len(epochs) > max_epochs:
            lines.append(f"  ... {len(epochs) - max_epochs} more epochs")
        lines.append("")
        lines.append("-- trends (one glyph per epoch) --")
        for attr, label in (
            ("queue_depth", "queue depth"),
            ("workers_busy", "workers busy"),
            ("builds_started", "builds started"),
            ("decisions", "decisions"),
        ):
            series = _attr_series(epochs, attr)
            if series:
                lines.append(
                    f"{label:>14}: {sparkline(series, width=60)} "
                    f"(min {min(series):g}, max {max(series):g})"
                )

    if builds:
        durations = [
            float(span["end"]) - float(span["start"])  # type: ignore[arg-type]
            for span in builds
        ]
        outcomes = [span.get("attrs") or {} for span in builds]
        succeeded = sum(1 for attrs in outcomes if attrs.get("success") is True)
        failed = sum(1 for attrs in outcomes if attrs.get("success") is False)
        aborted = sum(1 for attrs in outcomes if attrs.get("aborted"))
        lines.append("")
        lines.append(f"-- builds ({len(builds)} spans) --")
        # A build span with no outcome was still open when the trace was
        # written: running, not failed.
        lines.append(
            f"succeeded {succeeded}, aborted {aborted}, failed {failed}, "
            f"running {len(builds) - succeeded - failed - aborted}"
        )
        lines.append(
            f"duration min/mean/max: {min(durations):.1f} / "
            f"{sum(durations) / len(durations):.1f} / {max(durations):.1f} min"
        )
        lines.append(
            f"durations: {sparkline(sorted(durations), width=60)} (sorted)"
        )

    metric_lines: List[str] = []
    for name, label in (
        ("planner_builds_started_total", "builds started"),
        ("planner_builds_aborted_total", "builds aborted"),
        ("planner_decisions_total", "decisions"),
        ("speculation_selections_total", "speculation rounds"),
        ("conflict_pair_checks_total", "conflict pair checks"),
        ("conflict_pair_checks_skipped_total", "pair checks skipped (index)"),
        ("conflict_analyses_total", "conflict analyses"),
        ("build_steps_executed_total", "build steps executed"),
        ("build_steps_cached_total", "build steps cached (eliminated)"),
        ("service_submissions_total", "submissions"),
        ("service_enqueued_total", "submissions enqueued (overlap)"),
        ("executor_parallel_inflight", "parallel builds in flight"),
    ):
        value = _metric_value(trace.metrics, name)
        if value is not None:
            metric_lines.append(f"{label:>32}: {value:g}")
    for name, label in (
        ("service_turnaround_minutes", "turnaround"),
        ("planner_build_duration_minutes", "build duration"),
        ("speculation_build_value", "selected build value"),
        ("executor_parallel_worker_busy_seconds", "worker busy (wall s)"),
        ("executor_parallel_batch_seconds", "batch wall (s)"),
    ):
        summary = _histogram_summary(trace.metrics, name)
        if summary is not None:
            metric_lines.append(f"{label:>32}: {summary}")
    if metric_lines:
        lines.append("")
        lines.append("-- metrics --")
        lines.extend(metric_lines)
    return "\n".join(lines)
