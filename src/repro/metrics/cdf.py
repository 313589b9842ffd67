"""Empirical CDFs (Figures 9 and 10 are CDF plots)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class Cdf:
    """An empirical cumulative distribution over observed samples."""

    def __init__(self, samples: Sequence[float]) -> None:
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("CDF of empty data")
        self._sorted = np.sort(data)

    def __len__(self) -> int:
        return int(self._sorted.size)

    def at(self, x: float) -> float:
        """P(sample <= x)."""
        return float(np.searchsorted(self._sorted, x, side="right") / len(self))

    def quantile(self, q: float) -> float:
        """Inverse CDF at ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        return float(np.quantile(self._sorted, q))

    def series(self, grid: Sequence[float]) -> List[float]:
        """CDF evaluated at each grid point (for plotting/tables)."""
        return [self.at(x) for x in grid]

    def steps(self) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs, one per sample."""
        n = len(self)
        return [
            (float(value), (index + 1) / n)
            for index, value in enumerate(self._sorted)
        ]
