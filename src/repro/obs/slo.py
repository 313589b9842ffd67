"""Rolling-window SLO aggregation over the service's lifecycle records.

The paper's production service is operated through dashboards tracking
per-change turnaround and queue health (section 3, figure 3); this
module renders the equivalent service-level signals — turnaround
percentiles, speculation hit rate, worker utilization — from the same
lifecycle records the journal writes and the
:class:`~repro.obs.recorder.Recorder` keeps, so the live ``/slo``
endpoint needs no second instrumentation path and no trace fold.

:func:`compute_slo` renders the ``/slo`` payload of
:meth:`~repro.metrics.summary.RunSummary.from_records` over a window;
:class:`SloAggregator` wraps it around a live recorder for the HTTP
service.  The window is a *rolling* cut in simulated minutes: only
decisions made and build time spent inside ``[now - window, now]``
count, matching how an operator watches a dashboard rather than a
whole-run average.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.metrics.summary import RunSummary

#: Default rolling window, in simulated minutes.
DEFAULT_WINDOW_MINUTES = 60.0


def compute_slo(
    records: Sequence[Mapping[str, object]],
    now: Optional[float] = None,
    window_minutes: float = DEFAULT_WINDOW_MINUTES,
    worker_capacity: Optional[int] = None,
) -> Dict[str, object]:
    """The ``/slo`` payload of lifecycle ``records`` over a window.

    ``now`` defaults to the latest record's time; ``worker_capacity``
    (when known) turns busy build minutes into a utilization fraction.
    A build counts once it finished or was aborted inside the window; a
    build still running adds only its busy minutes.
    """
    if window_minutes <= 0.0:
        raise ValueError("window_minutes must be positive")
    if now is None:
        now = max((float(record["at"]) for record in records), default=0.0)
    summary = RunSummary.from_records(
        records, now=now, window_minutes=window_minutes, capacity=worker_capacity
    )
    payload = {
        "window_minutes": window_minutes,
        "now": float(now),
        "turnaround_minutes": summary.turnaround,
        "decisions": {"committed": summary.committed, "rejected": summary.rejected},
        "speculation": {
            "builds": summary.builds_finished + summary.builds_aborted,
            "succeeded": summary.builds_succeeded,
            "aborted": summary.builds_aborted,
            "hit_rate": summary.hit_rate,
        },
        "workers": {
            "busy_minutes": summary.busy_minutes,
            "capacity": worker_capacity,
            "utilization": summary.utilization,
        },
    }
    # Risk-batching health, present only when the run resolved a batch
    # (so plain-SubmitQueue /slo payloads keep their keys).
    batching = summary.batching()
    if batching is not None:
        payload["batching"] = batching
    return payload


class SloAggregator:
    """Live ``/slo`` view over a recorder: rolling window, recomputed on read.

    Recomputing from :attr:`~repro.obs.recorder.Recorder.records` on each
    call keeps the aggregator stateless (running builds contribute their
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
        """The payload at ``now`` (default: the recorder's clock)."""
        return compute_slo(
            self.recorder.records,
            now=self.recorder.now() if now is None else now,
            window_minutes=self.window_minutes,
            worker_capacity=self.worker_capacity,
        )
