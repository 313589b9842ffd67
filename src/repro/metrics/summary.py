"""One summary of a run: the numbers the paper judges SubmitQueue by.

A :class:`RunSummary` holds a run's counts — decisions and their
turnarounds, builds started/finished/aborted and their minutes, worker
busy time — and derives every run-level number from them in one place:
turnaround percentiles (section 8's P50/P95/P99), landed throughput per
hour, build minutes per landed change, the useful build-minute share,
the speculation hit rate and worker utilization.

Two feeders fill it:

* :meth:`RunSummary.from_planner` reads the planner's own tables, for
  code that holds the service in process (no recorder needed);
* :meth:`RunSummary.from_records` folds the lifecycle records
  (``repro.journal.records``) — a recorder's ``records`` or a journal
  file's — optionally cut to a ``[now - window, now]`` window, which is
  what the live ``/slo`` endpoint and ``journal inspect`` read.

Over the same run both feeders give the same counts, turnarounds and
minutes, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.percentile import nearest_rank, summarize

_EMPTY_TURNAROUND = {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "count": 0.0}


@dataclass(frozen=True)
class RunSummary:
    """A run's counts (or a window's) and the numbers derived from them."""

    submitted: int
    committed: int
    rejected: int
    #: Turnaround of each decided change, in minutes, in decision order.
    turnarounds: Tuple[float, ...]
    #: The span landed changes are counted over (throughput's divisor).
    makespan_minutes: float
    builds_started: int
    #: Builds that ran to a verdict (aborted ones excluded).
    builds_finished: int
    builds_succeeded: int
    builds_aborted: int
    #: Minutes of the finished builds.
    build_minutes: float
    #: Minutes aborted builds had run when they were aborted.
    wasted_minutes: float
    #: Worker minutes spent building, running builds included.
    busy_minutes: float
    #: The span worker time is counted over (utilization's divisor).
    window_minutes: float
    capacity: Optional[int] = None
    #: ``(kind, size, depth)`` of each batch resolution counted, or
    #: ``None`` when the run resolved no batch at all.
    batches: Optional[Tuple[Tuple[str, int, int], ...]] = None

    # -- feeders ---------------------------------------------------------------

    @classmethod
    def from_planner(
        cls, planner, now: float, makespan: Optional[float] = None
    ) -> "RunSummary":
        """The whole run so far, from the planner's tables at ``now``;
        ``makespan`` defaults to ``now`` (the run began at minute 0).

        Successes are the changes' speculation counters, which a restored
        snapshot carries (its build table starts empty)."""
        stats, workers = planner.stats, planner.workers
        decisions = planner.decisions()
        records = planner.records
        committed = sum(1 for decision in decisions if decision.committed)
        succeeded = sum(r.speculations_succeeded for r in records.values())
        return cls(
            submitted=len(records),
            committed=committed,
            rejected=len(decisions) - committed,
            turnarounds=tuple(records[d.change_id].turnaround for d in decisions),
            makespan_minutes=now if makespan is None else makespan,
            builds_started=stats.builds_started,
            builds_finished=stats.builds_completed,
            builds_succeeded=succeeded,
            builds_aborted=stats.builds_aborted,
            build_minutes=stats.build_minutes,
            wasted_minutes=stats.wasted_minutes,
            busy_minutes=workers.busy_minutes(now),
            window_minutes=now,
            capacity=workers.capacity,
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, object]],
        now: Optional[float] = None,
        window_minutes: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> "RunSummary":
        """Fold lifecycle records into a summary of ``[now - window, now]``.

        ``now`` defaults to the latest record's time; with no window the
        cut runs from minute 0.  A decision or batch counts when it falls
        in the cut, as does a build that finished or was aborted in it.
        Builds pair by key: ``build_start`` (``at``, ``duration``) with
        ``build_finish`` (``success``) or the ``epoch`` that aborted it.
        Every build adds the minutes it overlaps the cut to
        :attr:`busy_minutes`; one still running at the end adds only those.
        """
        if now is None:
            now = max((float(record["at"]) for record in records), default=0.0)
        cut = float(now)
        lo = -math.inf if window_minutes is None else cut - window_minutes
        submitted = committed = rejected = 0
        turnarounds: List[float] = []
        started = finished = succeeded = aborted = 0
        build_minutes = wasted_minutes = 0.0
        #: ``[start, end]`` per build in start order; ``end`` stays
        #: ``None`` while the build runs.
        spans: List[List[Optional[float]]] = []
        running: Dict[Tuple, Tuple[List[Optional[float]], float]] = {}
        batches: Optional[List[Tuple[str, int, int]]] = None
        for record in records:
            kind, at = record["t"], float(record["at"])
            inside = lo <= at <= cut
            if kind == "build_start":
                key = record["key"]
                span = [at, None]
                spans.append(span)
                running[key["c"], tuple(key["a"])] = (span, record["duration"])
                started += inside
            elif kind == "build_finish":
                key = record["key"]
                entry = running.pop((key["c"], tuple(key["a"])), None)
                if entry is None:
                    continue
                span, duration = entry
                span[1] = at
                if inside:
                    finished += 1
                    succeeded += bool(record["success"])
                    build_minutes += duration
            elif kind == "epoch":
                for key in record["aborted"]:
                    entry = running.pop((key["c"], tuple(key["a"])), None)
                    if entry is None:
                        continue
                    span = entry[0]
                    span[1] = at
                    if inside:
                        aborted += 1
                        wasted_minutes += max(0.0, at - span[0])
            elif kind == "decision":
                if inside:
                    if record["committed"]:
                        committed += 1
                    else:
                        rejected += 1
                    turnaround = record["turnaround"]
                    if isinstance(turnaround, (int, float)) and not isinstance(
                        turnaround, bool
                    ):
                        turnarounds.append(float(turnaround))
            elif kind == "submit":
                submitted += inside
            elif kind == "batch":
                if batches is None:
                    batches = []
                if inside:
                    size = len(record["members"])
                    batches.append((record["kind"], size, record["depth"]))
        busy_minutes = 0.0
        for start, end in spans:
            end = max(cut, start) if end is None else end
            busy_minutes += max(0.0, min(end, cut) - max(start, lo))
        if window_minutes is None:
            span_minutes = cut
        else:
            span_minutes = min(window_minutes, max(cut - lo, 0.0))
        return cls(
            submitted=submitted,
            committed=committed,
            rejected=rejected,
            turnarounds=tuple(turnarounds),
            makespan_minutes=span_minutes,
            builds_started=started,
            builds_finished=finished,
            builds_succeeded=succeeded,
            builds_aborted=aborted,
            build_minutes=build_minutes,
            wasted_minutes=wasted_minutes,
            busy_minutes=busy_minutes,
            window_minutes=span_minutes,
            capacity=capacity,
            batches=None if batches is None else tuple(batches),
        )

    # -- derived numbers ---------------------------------------------------------

    @property
    def turnaround(self) -> Dict[str, float]:
        """P50/P95/P99, mean and count of the turnarounds (zeros when
        nothing was decided)."""
        if not self.turnarounds:
            return dict(_EMPTY_TURNAROUND)
        return summarize(self.turnarounds)

    @property
    def throughput_per_hour(self) -> float:
        """Changes landed per hour of :attr:`makespan_minutes`."""
        if self.makespan_minutes <= 0.0:
            return 0.0
        return self.committed / self.makespan_minutes * 60.0

    @property
    def build_minutes_per_landed(self) -> float:
        return self.build_minutes / self.committed if self.committed else 0.0

    @property
    def useful_build_minute_share(self) -> float:
        """The share of build minutes not thrown away by aborts."""
        if self.build_minutes <= 0.0:
            return 0.0
        return 1.0 - self.wasted_minutes / self.build_minutes

    @property
    def hit_rate(self) -> float:
        """Succeeded builds over builds that ran to a verdict."""
        if not self.builds_finished:
            return 0.0
        return self.builds_succeeded / self.builds_finished

    @property
    def utilization(self) -> Optional[float]:
        """Busy worker minutes over capacity x :attr:`window_minutes`
        (``None`` without a capacity or a window)."""
        if not self.capacity or self.window_minutes <= 0.0:
            return None
        return self.busy_minutes / (self.capacity * self.window_minutes)

    def contract(self) -> Dict[str, float]:
        """The benchmark's five simulated end-to-end metrics: nearest-rank
        turnaround P50/P90, landed per hour, build minutes per landed
        change and the useful build-minute share."""
        return {
            "turnaround_p50_min": nearest_rank(self.turnarounds, 0.5),
            "turnaround_p90_min": nearest_rank(self.turnarounds, 0.9),
            "landed_per_sim_hour": self.throughput_per_hour,
            "build_min_per_landed": self.build_minutes_per_landed,
            "useful_build_min_share": self.useful_build_minute_share,
        }

    def batching(self) -> Optional[Dict[str, float]]:
        """Risk-batching health, or ``None`` when no batch resolved."""
        if self.batches is None:
            return None
        landed = [size for kind, size, _ in self.batches if kind == "landed"]
        resolved = len(self.batches)
        return {
            "batches_landed": len(landed),
            "members_committed": sum(landed),
            "bisections": resolved - len(landed),
            "mean_size": (
                sum(float(size) for _, size, _ in self.batches) / resolved
                if resolved
                else 0.0
            ),
            "max_bisect_depth": max(
                (depth for _, _, depth in self.batches), default=0
            ),
        }
