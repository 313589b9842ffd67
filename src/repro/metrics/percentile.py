"""Percentile helpers used by every evaluation table."""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """The P50/P95/P99 + mean summary the paper reports.

    Raises :class:`ValueError` on an empty sample and on non-finite
    values — both indicate an upstream accounting bug (a run that decided
    nothing, an ``inf`` ratio leaking in) and would otherwise poison every
    downstream table silently.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if not np.all(np.isfinite(data)):
        raise ValueError("cannot summarize non-finite values")
    return {
        "p50": float(np.percentile(data, 50)),
        "p95": float(np.percentile(data, 95)),
        "p99": float(np.percentile(data, 99)),
        "mean": float(np.mean(data)),
        "count": float(data.size),
    }


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]): the benchmark's
    definition, an observed value rather than an interpolation; 0.0 for
    an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
