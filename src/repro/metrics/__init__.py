"""Metrics: percentiles, CDFs, and evaluation collectors."""

from repro.metrics.percentile import summarize
from repro.metrics.cdf import Cdf
from repro.metrics.collector import GreennessTracker

__all__ = [
    "Cdf",
    "GreennessTracker",
    "summarize",
]
