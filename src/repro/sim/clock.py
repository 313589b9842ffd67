"""A simulated clock that only moves forward."""

from __future__ import annotations

from repro.errors import ClockError


class Clock:
    """Monotonically advancing simulated time (minutes)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move to an absolute time; going backwards raises."""
        if timestamp < self._now:
            raise ClockError(f"cannot rewind clock {self._now} -> {timestamp}")
        self._now = float(timestamp)
        return self._now
