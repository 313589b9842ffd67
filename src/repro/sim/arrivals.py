"""Arrival processes for change streams.

The paper replays recorded changes "at different rates (100, 200, 300,
400 and 500 changes per hour)", keeping inter-arrival times fixed per
rate.  The arrival process is Poisson (hour-scale production arrivals are
well approximated by it).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np


def poisson_arrivals(
    rate_per_hour: float,
    count: int,
    rng: Optional[np.random.Generator] = None,
    start: float = 0.0,
) -> List[float]:
    """``count`` Poisson arrival times (minutes) at ``rate_per_hour``."""
    if rate_per_hour <= 0:
        raise ValueError("rate must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = rng if rng is not None else np.random.default_rng()
    mean_gap = 60.0 / rate_per_hour
    gaps = rng.exponential(mean_gap, size=count)
    return list(start + np.cumsum(gaps))
