"""The metrics registry: counters, gauges, histograms with labels.

One registry holds every series a run produces; the planner, speculation
engine, conflict analyzer, build executor, and core service all register
into the same instance (via a :class:`~repro.obs.recorder.Recorder`), so a
single dump answers "what did this run do?".

Exposition formats:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  histogram ``_bucket``/``_sum``/``_count`` expansion), scrape-ready;
* :meth:`MetricsRegistry.to_json` — a structured dump the trace file and
  the ``obs report`` inspector consume.

Semantics are deliberately strict: a metric name is bound to one kind
(counter/gauge/histogram) and one label-key set on first registration, and
a per-metric series cap bounds label cardinality — both guard against the
silent-explosion failure modes real telemetry systems suffer.

A count a component already keeps in a stats dataclass is not counted a
second time here: the field is declared with :func:`metric_field`, and
:meth:`MetricsRegistry.expose` binds its counter series to the field,
which is read whenever the registry is rendered.  A name is either
exposed or pushed (``counter(...).inc()``), never both.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import MetricsError

LabelKey = Tuple[Tuple[str, str], ...]

#: Bucket upper bounds for simulated-minute durations: sub-minute cache
#: hits up through multi-day pathologies.
DEFAULT_MINUTE_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 120.0, 240.0, 480.0, 1440.0,
)

#: Bucket upper bounds for probabilities/ratios in [0, 1].
UNIT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    """A sample in the text format: integral values as integers, other
    finite ones exactly (``repr``), non-finite ones as ``+Inf``/``-Inf``/``NaN``."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer():
        return str(int(value))
    return repr(value)


def metric_field(
    name: str,
    help: str,
    labels: Optional[Mapping[str, str]] = None,
    default: Any = 0,
) -> Any:
    """A stats-dataclass field that :meth:`MetricsRegistry.expose`
    publishes as the counter ``name`` (with ``labels``)."""
    return field(default=default, metadata={"metric": (name, labels, help)})


class Counter:
    """A monotonically increasing sample."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        self._value += amount


class _ExposedCounter:
    """A counter series whose value is one stats-object field, read live."""

    __slots__ = ("name", "_stats", "_attr")

    def __init__(self, name: str, stats: object, attr: str) -> None:
        self.name = name
        self._stats = stats
        self._attr = attr

    @property
    def value(self) -> float:
        return float(getattr(self._stats, self._attr))

    def inc(self, amount: float = 1.0) -> None:
        raise MetricsError(
            f"counter {self.name} is exposed from "
            f"{type(self._stats).__name__}.{self._attr}; count there"
        )


class Gauge:
    """A sample that can move in both directions."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are finite upper bounds in increasing order; a ``+Inf``
    bucket is implicit.  ``observe`` files the value into the first bucket
    whose bound is >= the value.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "_sum", "_count")

    def __init__(
        self, name: str, labels: LabelKey, buckets: Sequence[float]
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricsError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bucket counts as Prometheus reports them (cumulative)."""
        total = 0
        out: List[int] = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0


class _Family:
    """Every series sharing one metric name."""

    __slots__ = ("name", "kind", "help", "label_names", "series", "buckets", "exposed")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.series: Dict[LabelKey, object] = {}
        self.buckets = buckets
        #: Series read from stats fields (:meth:`MetricsRegistry.expose`).
        self.exposed = False


class MetricsRegistry:
    """Get-or-create factory and exposition surface for all series."""

    def __init__(self, max_series_per_metric: int = 1000) -> None:
        if max_series_per_metric <= 0:
            raise MetricsError("max_series_per_metric must be positive")
        self._families: Dict[str, _Family] = {}
        self.max_series_per_metric = max_series_per_metric

    # -- registration --------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Mapping[str, str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Tuple[_Family, LabelKey]:
        family = self._families.get(name)
        label_names = tuple(sorted(str(k) for k in labels))
        if family is None:
            family = _Family(
                name,
                kind,
                help_text,
                label_names,
                tuple(buckets) if buckets is not None else None,
            )
            self._families[name] = family
        else:
            if family.kind != kind:
                raise MetricsError(
                    f"metric {name} already registered as {family.kind}, "
                    f"not {kind}"
                )
            if family.label_names != label_names:
                raise MetricsError(
                    f"metric {name} uses labels {family.label_names}, "
                    f"got {label_names}"
                )
            if help_text and not family.help:
                family.help = help_text
        key = _label_key(labels)
        if key not in family.series and len(family.series) >= self.max_series_per_metric:
            raise MetricsError(
                f"metric {name} exceeded {self.max_series_per_metric} series "
                "(label cardinality explosion)"
            )
        return family, key

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """The pushed counter ``name``; on an exposed name, the live field
        series (whose ``inc`` raises)."""
        family, key = self._family(name, "counter", help, labels or {})
        series = family.series.get(key)
        if series is None:
            if family.exposed:
                raise MetricsError(f"counter {name} is exposed, not pushed")
            series = Counter(name, key)
            family.series[key] = series
        return series  # type: ignore[return-value]

    def expose(self, stats: object) -> None:
        """Publish ``stats``' :func:`metric_field` fields as counters read
        from the object whenever the registry is rendered.

        Exposing another object under the same names rebinds the series
        to it; a name already pushed cannot be exposed.
        """
        for spec in fields(stats):
            declared = spec.metadata.get("metric")
            if declared is None:
                continue
            name, labels, help_text = declared
            family, key = self._family(name, "counter", help_text, labels or {})
            if family.series and not family.exposed:
                raise MetricsError(f"counter {name} is pushed, not exposed")
            family.exposed = True
            family.series[key] = _ExposedCounter(name, stats, spec.name)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        family, key = self._family(name, "gauge", help, labels or {})
        series = family.series.get(key)
        if series is None:
            series = Gauge(name, key)
            family.series[key] = series
        return series  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_MINUTE_BUCKETS
        family, key = self._family(name, "histogram", help, labels or {}, bounds)
        if family.buckets is not None and bounds != family.buckets:
            if buckets is not None:
                raise MetricsError(
                    f"histogram {name} already registered with buckets "
                    f"{family.buckets}"
                )
            bounds = family.buckets
        series = family.series.get(key)
        if series is None:
            series = Histogram(name, key, bounds)
            family.series[key] = series
        return series  # type: ignore[return-value]

    # -- inspection ----------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return sum(len(f.series) for f in self._families.values())

    def families(self) -> Iterable[_Family]:
        for name in sorted(self._families):
            yield self._families[name]

    # -- exposition ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.series):
                series = family.series[key]
                if family.kind == "histogram":
                    hist: Histogram = series  # type: ignore[assignment]
                    cumulative = hist.cumulative_counts()
                    for bound, count in zip(hist.buckets, cumulative):
                        labels = _format_labels(key, [("le", f"{bound:g}")])
                        lines.append(f"{family.name}_bucket{labels} {count}")
                    inf_labels = _format_labels(key, [("le", "+Inf")])
                    lines.append(
                        f"{family.name}_bucket{inf_labels} {cumulative[-1]}"
                    )
                    lines.append(
                        f"{family.name}_sum{_format_labels(key)} "
                        f"{_format_value(hist.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(key)} {hist.count}"
                    )
                else:
                    value = series.value  # type: ignore[union-attr]
                    lines.append(
                        f"{family.name}{_format_labels(key)} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, object]:
        """A structured dump (consumed by trace files and ``obs report``)."""
        out: Dict[str, object] = {}
        for family in self.families():
            series_list: List[Dict[str, object]] = []
            for key in sorted(family.series):
                series = family.series[key]
                entry: Dict[str, object] = {"labels": dict(key)}
                if family.kind == "histogram":
                    hist: Histogram = series  # type: ignore[assignment]
                    entry["buckets"] = list(hist.buckets)
                    entry["counts"] = list(hist.bucket_counts)
                    entry["sum"] = hist.sum
                    entry["count"] = hist.count
                else:
                    entry["value"] = series.value  # type: ignore[union-attr]
                series_list.append(entry)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series_list,
            }
        return out
