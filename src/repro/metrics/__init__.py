"""Metrics: the run summary, percentiles, CDFs, and evaluation collectors."""

from repro.metrics.percentile import summarize
from repro.metrics.cdf import Cdf
from repro.metrics.collector import GreennessTracker
from repro.metrics.summary import RunSummary

__all__ = [
    "Cdf",
    "GreennessTracker",
    "RunSummary",
    "summarize",
]
