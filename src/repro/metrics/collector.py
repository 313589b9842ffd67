"""Evaluation collectors.

:class:`GreennessTracker` follows the mainline's health over time and
produces the hourly success-rate series of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class _HealthInterval:
    start: float
    green: bool


class GreennessTracker:
    """Tracks mainline health over simulated time.

    The trunk-based-development simulation marks the mainline red when a
    faulty commit lands and green again once it is detected and reverted;
    this tracker turns those transitions into Figure 14's hourly success
    rate and an overall green fraction (the paper reports 52 % green over
    one week before SubmitQueue).
    """

    def __init__(self, start: float = 0.0, green: bool = True) -> None:
        self._intervals: List[_HealthInterval] = [_HealthInterval(start, green)]
        self._closed_at: Optional[float] = None

    @property
    def currently_green(self) -> bool:
        return self._intervals[-1].green

    def record(self, at: float, green: bool) -> None:
        """Record a health transition at time ``at``."""
        if self._closed_at is not None:
            raise ValueError("tracker already closed")
        last = self._intervals[-1]
        if at < last.start:
            raise ValueError("transitions must be time-ordered")
        if green != last.green:
            self._intervals.append(_HealthInterval(at, green))

    def close(self, at: float) -> None:
        """Stop tracking at ``at`` (end of the observation window)."""
        if at < self._intervals[-1].start:
            raise ValueError("close time before last transition")
        self._closed_at = at

    def _spans(self) -> List[Tuple[float, float, bool]]:
        if self._closed_at is None:
            raise ValueError("close() the tracker before reading results")
        spans: List[Tuple[float, float, bool]] = []
        for index, interval in enumerate(self._intervals):
            end = (
                self._intervals[index + 1].start
                if index + 1 < len(self._intervals)
                else self._closed_at
            )
            if end > interval.start:
                spans.append((interval.start, end, interval.green))
        return spans

    def green_fraction(self) -> float:
        """Fraction of tracked time the mainline was green."""
        spans = self._spans()
        total = sum(end - start for start, end, _ in spans)
        if total <= 0:
            return 1.0
        green = sum(end - start for start, end, is_green in spans if is_green)
        return green / total

    def hourly_green_rate(self) -> List[float]:
        """Per-hour percentage of time green (Figure 14's y-axis)."""
        spans = self._spans()
        if not spans:
            return []
        start = spans[0][0]
        end = spans[-1][1]
        rates: List[float] = []
        hour = start
        while hour < end:
            hour_end = min(hour + 60.0, end)
            green = 0.0
            for span_start, span_end, is_green in spans:
                if not is_green:
                    continue
                overlap = min(span_end, hour_end) - max(span_start, hour)
                if overlap > 0:
                    green += overlap
            rates.append(100.0 * green / (hour_end - hour))
            hour += 60.0
        return rates
