"""Rolling-window SLO aggregation over recorder output.

The paper's production service is operated through dashboards tracking
per-change turnaround and queue health (section 3, figure 3); this
module computes the equivalent service-level signals — turnaround
percentiles, speculation hit rate, worker utilization — from the same
trace the :class:`~repro.obs.recorder.Recorder` exports, so the live
``/slo`` endpoint needs no second instrumentation path.

:func:`compute_slo` is a pure function over parsed trace records (the
:meth:`~repro.obs.recorder.Recorder.trace` shape); :class:`SloAggregator`
wraps it around a live recorder for the HTTP service.  The window is a
*rolling* cut in simulated minutes: only decisions made and build time
spent inside ``[now - window, now]`` count, matching how an operator
watches a dashboard rather than a whole-run average.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.metrics.percentile import summarize

#: Default rolling window, in simulated minutes.
DEFAULT_WINDOW_MINUTES = 60.0

_EMPTY_SUMMARY = {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "count": 0.0}


def _overlap(start: float, end: float, lo: float, hi: float) -> float:
    """Length of ``[start, end] ∩ [lo, hi]`` (0 when disjoint)."""
    return max(0.0, min(end, hi) - max(start, lo))


def compute_slo(
    records: Sequence[Dict[str, object]],
    now: Optional[float] = None,
    window_minutes: float = DEFAULT_WINDOW_MINUTES,
    worker_capacity: Optional[int] = None,
) -> Dict[str, object]:
    """Fold trace records into the ``/slo`` payload.

    ``records`` is any iterable of parsed span/event dicts (extra record
    types are skipped, so a full JSONL dump works too).  ``now`` defaults
    to the latest timestamp seen in the records; ``worker_capacity``
    (when known) turns busy build minutes into a utilization fraction.
    """
    if window_minutes <= 0.0:
        raise ValueError("window_minutes must be positive")
    horizon = 0.0
    decisions: List[Dict[str, object]] = []
    builds: List[Dict[str, object]] = []
    batch_events: List[Dict[str, object]] = []
    for record in records:
        kind = record.get("type")
        if kind == "event":
            at = float(record.get("at", 0.0))
            horizon = max(horizon, at)
            if record.get("name") == "decision":
                decisions.append(record)
            elif record.get("name") == "batch":
                batch_events.append(record)
        elif kind == "span":
            horizon = max(horizon, float(record.get("end", 0.0)))
            if record.get("name") == "build":
                builds.append(record)
    cut = float(now) if now is not None else horizon
    lo = cut - window_minutes

    turnarounds: List[float] = []
    committed = rejected = 0
    for event in decisions:
        at = float(event.get("at", 0.0))
        if not lo <= at <= cut:
            continue
        attrs = event.get("attrs") or {}
        if attrs.get("verdict") == "committed":
            committed += 1
        else:
            rejected += 1
        turnaround = attrs.get("turnaround")
        if isinstance(turnaround, (int, float)) and not isinstance(
            turnaround, bool
        ):
            turnarounds.append(float(turnaround))

    total = succeeded = aborted = 0
    busy_minutes = 0.0
    for span in builds:
        start, end = float(span["start"]), float(span["end"])
        busy_minutes += _overlap(start, end, lo, cut)
        if not lo <= end <= cut:
            continue  # counts only builds that *finished* in the window
        attrs = span.get("attrs") or {}
        total += 1
        if attrs.get("aborted"):
            aborted += 1
        elif attrs.get("success"):
            succeeded += 1

    span_minutes = min(window_minutes, max(cut - lo, 0.0))
    utilization: Optional[float] = None
    if worker_capacity and span_minutes > 0.0:
        utilization = busy_minutes / (worker_capacity * span_minutes)
    finished = total - aborted
    payload = {
        "window_minutes": window_minutes,
        "now": cut,
        "turnaround_minutes": (
            summarize(turnarounds) if turnarounds else dict(_EMPTY_SUMMARY)
        ),
        "decisions": {"committed": committed, "rejected": rejected},
        "speculation": {
            "builds": total,
            "succeeded": succeeded,
            "aborted": aborted,
            "hit_rate": succeeded / finished if finished else 0.0,
        },
        "workers": {
            "busy_minutes": busy_minutes,
            "capacity": worker_capacity,
            "utilization": utilization,
        },
    }
    # Risk-batching health, present only when the run emits batch events
    # (so plain-SubmitQueue /slo payloads — and their golden pins — are
    # byte-identical to before batching existed).
    if batch_events:
        landed = bisections = members = 0
        sizes: List[float] = []
        max_depth = 0
        for event in batch_events:
            at = float(event.get("at", 0.0))
            if not lo <= at <= cut:
                continue
            attrs = event.get("attrs") or {}
            size = int(attrs.get("size", 0) or 0)
            sizes.append(float(size))
            max_depth = max(max_depth, int(attrs.get("depth", 0) or 0))
            if attrs.get("kind") == "landed":
                landed += 1
                members += size
            else:
                bisections += 1
        resolved = landed + bisections
        payload["batching"] = {
            "batches_landed": landed,
            "members_committed": members,
            "bisections": bisections,
            "mean_size": sum(sizes) / resolved if resolved else 0.0,
            "max_bisect_depth": max_depth,
        }
    return payload


class SloAggregator:
    """Live ``/slo`` view over a recorder: rolling window, recomputed on read.

    Recomputing from :meth:`~repro.obs.recorder.Recorder.trace` on each
    call keeps the aggregator stateless (open spans contribute their
    elapsed portion, re-reads can never double-count) at O(records) per
    request — the right trade for a dashboard endpoint polled every few
    seconds.
    """

    def __init__(
        self,
        recorder,
        window_minutes: float = DEFAULT_WINDOW_MINUTES,
        worker_capacity: Optional[int] = None,
    ) -> None:
        if window_minutes <= 0.0:
            raise ValueError("window_minutes must be positive")
        self.recorder = recorder
        self.window_minutes = window_minutes
        self.worker_capacity = worker_capacity

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        records = self.recorder.trace(at=now)
        return compute_slo(
            records,
            now=now,
            window_minutes=self.window_minutes,
            worker_capacity=self.worker_capacity,
        )
