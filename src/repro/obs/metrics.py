"""Metric primitives: Counter, Gauge, Histogram, and their registry.

Design constraints (DESIGN §9):

* **Hot-path increments are one dict operation.**  Every primitive
  stores its per-labelset values in a plain dict keyed by the label
  *value* tuple; ``inc``/``set``/``observe`` are a ``dict.get`` plus a
  store — no locks, no attribute indirection, no allocation beyond the
  key tuple the caller already holds.
* **No locks in the serial path.**  A registry belongs to one run (one
  engine pass, one worker); cross-shard and cross-agent aggregation
  folds whole registries with :meth:`MetricsRegistry.merge`, never by
  sharing one between threads or processes.
* **The registry is the only metric state.**  It pickles as is across
  the cluster's process boundary, crosses the fleet's JSON boundary as
  :meth:`MetricsRegistry.to_wire`, and is what the exporters render.
* **Sampling beats instrumenting.**  The monitors already maintain
  additive counters (``DartStats`` and friends); collectors copy those
  cumulative values into the registry at emission time via
  :meth:`Counter.set_cumulative`, so enabling telemetry adds *zero*
  work per packet — only work per emission interval.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

LabelValues = Tuple[str, ...]

_NO_LABELS: LabelValues = ()

#: Prometheus metric/label name syntax (colons reserved for rules).
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default buckets for wall-clock durations in seconds (chunk timings,
#: finalize durations): 1ms .. 10s, roughly log-spaced.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Stamped into every :meth:`MetricsRegistry.to_wire` dict; bumped on
#: breaking shape changes so a peer speaking an older layout is refused
#: loudly instead of mis-merged.
SNAPSHOT_WIRE_SCHEMA = "dart-snapshot-wire/1"


def _check_name(name: str, what: str = "metric") -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid {what} name {name!r}")
    return name


class _Metric:
    """Shared surface of the three primitives."""

    __slots__ = ("name", "help", "label_names")

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label_names: Tuple[str, ...] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        for label in self.label_names:
            _check_name(label, "label")

    def _check_labels(self, labels: LabelValues) -> None:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label "
                f"value(s) {self.label_names}, got {labels!r}"
            )

    def _check_mergeable(self, other: "_Metric") -> None:
        if other.name != self.name:
            raise ValueError(
                f"cannot merge metric {other.name!r} into {self.name!r}"
            )
        if other.kind != self.kind or other.label_names != self.label_names:
            raise ValueError(
                f"{self.name}: incompatible shapes "
                f"({other.kind}{other.label_names} vs "
                f"{self.kind}{self.label_names})"
            )

    def empty(self) -> "_Metric":
        """A series-less metric of the same shape (a merge target)."""
        return type(self)(self.name, self.help, self.label_names)

    def merge(self, other: "_Metric") -> "_Metric":
        """Add ``other``'s series into this metric; returns self.

        Kind and label names (and a histogram's bucket bounds) must
        match, else :class:`ValueError`.  ``other`` is never mutated.
        """
        raise NotImplementedError

    def wire_series(self) -> Dict[str, Any]:
        """JSON-safe per-labelset data (histograms: bounds too), shared
        by :meth:`MetricsRegistry.to_wire` and the JSON exporter; each
        labelset becomes a ``series`` entry, since label-value tuples
        cannot key a JSON object."""
        raise NotImplementedError


class _Valued(_Metric):
    """Counter and Gauge: one number per labelset."""

    __slots__ = ("values",)

    def __init__(self, name: str, help: str = "",
                 label_names: Tuple[str, ...] = ()) -> None:
        super().__init__(name, help, label_names)
        self.values: Dict[LabelValues, float] = {}

    def value(self, labels: LabelValues = _NO_LABELS) -> float:
        return self.values.get(labels, 0)

    def merge(self, other: "_Metric") -> "_Valued":
        self._check_mergeable(other)
        assert isinstance(other, _Valued)
        values = self.values
        for labels, value in other.values.items():
            values[labels] = values.get(labels, 0) + value
        return self

    def wire_series(self) -> Dict[str, Any]:
        return {"series": [
            {"labels": list(labels), "value": value}
            for labels, value in sorted(self.values.items())
        ]}


class Counter(_Valued):
    """A monotonically increasing count, one value per labelset."""

    __slots__ = ()

    kind = "counter"

    def inc(self, labels: LabelValues = _NO_LABELS,
            amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (one dict get + store; the hot-path write)."""
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        values = self.values
        values[labels] = values.get(labels, 0) + amount

    def set_cumulative(self, labels: LabelValues,
                       value: Union[int, float]) -> None:
        """Overwrite with an externally maintained cumulative total.

        The collector fast path: upstream counters (``DartStats`` et al.)
        are already cumulative, so sampling them is a single store —
        cheaper and race-free compared to computing deltas.
        """
        self.values[labels] = value


class Gauge(_Valued):
    """A value that can go up and down (occupancy, queue depth)."""

    __slots__ = ()

    kind = "gauge"

    def set(self, labels: LabelValues = _NO_LABELS,
            value: Union[int, float] = 0) -> None:
        self.values[labels] = value

    def inc(self, labels: LabelValues = _NO_LABELS,
            amount: Union[int, float] = 1) -> None:
        values = self.values
        values[labels] = values.get(labels, 0) + amount

    def dec(self, labels: LabelValues = _NO_LABELS,
            amount: Union[int, float] = 1) -> None:
        self.inc(labels, -amount)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  Per labelset the histogram keeps one bucket-count
    list plus a running sum and count — ``observe`` is a bisect and
    three stores.
    """

    __slots__ = ("buckets", "bucket_counts", "sums", "counts")

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 label_names: Tuple[str, ...] = (),
                 buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        super().__init__(name, help, label_names)
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise ValueError(f"{self.name}: need at least one bucket bound")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"{self.name}: duplicate bucket bounds")
        self.buckets = ordered
        self.bucket_counts: Dict[LabelValues, List[int]] = {}
        self.sums: Dict[LabelValues, float] = {}
        self.counts: Dict[LabelValues, int] = {}

    def observe(self, value: Union[int, float],
                labels: LabelValues = _NO_LABELS) -> None:
        counts = self.bucket_counts.get(labels)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self.bucket_counts[labels] = counts
        counts[bisect_left(self.buckets, value)] += 1
        self.sums[labels] = self.sums.get(labels, 0.0) + value
        self.counts[labels] = self.counts.get(labels, 0) + 1

    def set_state(self, labels: LabelValues, bucket_counts: List[int],
                  sum: float, count: int) -> None:
        """Overwrite one labelset from externally maintained bins.

        The histogram twin of :meth:`Counter.set_cumulative`: analytics
        stages (:class:`repro.core.hist.RttHistogram`) already maintain
        per-bin counts on their own hot path, so a collector samples
        them with one copy per emission instead of re-observing every
        value.  ``bucket_counts`` are per-bin (non-cumulative) counts,
        one per finite bound plus the +Inf overflow.
        """
        if len(bucket_counts) != len(self.buckets) + 1:
            raise ValueError(
                f"{self.name}: expected {len(self.buckets) + 1} bin "
                f"counts, got {len(bucket_counts)}"
            )
        self.bucket_counts[labels] = list(bucket_counts)
        self.sums[labels] = sum
        self.counts[labels] = count

    def count(self, labels: LabelValues = _NO_LABELS) -> int:
        return self.counts.get(labels, 0)

    def sum(self, labels: LabelValues = _NO_LABELS) -> float:
        return self.sums.get(labels, 0.0)

    def empty(self) -> "Histogram":
        return Histogram(self.name, self.help, self.label_names,
                         buckets=self.buckets)

    def merge(self, other: "_Metric") -> "Histogram":
        self._check_mergeable(other)
        assert isinstance(other, Histogram)
        if other.buckets != self.buckets:
            raise ValueError(
                f"{self.name}: bucket bounds differ "
                f"({other.buckets} vs {self.buckets})"
            )
        for labels, counts in other.bucket_counts.items():
            mine = self.bucket_counts.get(labels)
            if mine is None:
                self.bucket_counts[labels] = list(counts)
            else:
                for i, count in enumerate(counts):
                    mine[i] += count
            self.sums[labels] = self.sum(labels) + other.sum(labels)
            self.counts[labels] = self.count(labels) + other.count(labels)
        return self

    def wire_series(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": list(labels),
                    "bucket_counts": list(self.bucket_counts[labels]),
                    "sum": self.sum(labels),
                    "count": self.count(labels),
                }
                for labels in sorted(self.bucket_counts)
            ],
        }


class MetricsRegistry:
    """One run's metrics, keyed by name; get-or-create accessors.

    Re-requesting a name returns the existing metric when the kind,
    label names and (histograms) bucket bounds match, and raises when
    they do not — two call sites cannot silently fork one metric into
    incompatible shapes.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       label_names: Tuple[str, ...], **kwargs):
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not cls:
                raise ValueError(
                    f"{name!r} already registered as a {metric.kind}"
                )
            if metric.label_names != tuple(label_names):
                raise ValueError(
                    f"{name!r} already registered with labels "
                    f"{metric.label_names}, requested {tuple(label_names)}"
                )
            return metric
        metric = cls(name, help, label_names, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                label_names: Tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "",
              label_names: Tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(self, name: str, help: str = "",
                  label_names: Tuple[str, ...] = (),
                  buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        histogram = self._get_or_create(Histogram, name, help, label_names,
                                        buckets=buckets)
        if histogram.buckets != tuple(sorted(buckets)):
            raise ValueError(
                f"{name!r} already registered with buckets "
                f"{histogram.buckets}, requested {tuple(sorted(buckets))}"
            )
        return histogram

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def value(self, name: str, labels: LabelValues = _NO_LABELS) -> float:
        """One counter/gauge value (0 when the metric is absent)."""
        metric = self._metrics.get(name)
        if not isinstance(metric, _Valued):
            return 0
        return metric.value(labels)

    def __iter__(self) -> Iterator[_Metric]:
        """Metrics in name order — the order every renderer prints."""
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` in by addition, per metric and labelset.

        Addition is associative and commutative, so shards and agents
        may report in any order and grouping (the repo's
        ``AdditiveCounters`` convention).  Gauges add too: per-shard
        gauges carry the shard id as a label, so they stay apart.
        A metric this registry lacks is adopted as a copy; ``other`` is
        never mutated.  Returns self.
        """
        for metric in other:
            mine = self._metrics.get(metric.name)
            if mine is None:
                mine = self._metrics[metric.name] = metric.empty()
            mine.merge(metric)
        return self

    def to_wire(self, sequence: int = 0) -> Dict[str, Any]:
        """Stable, versioned, JSON-safe form for cross-process transport.

        The schema tag, the emitter's emission index ``sequence`` and
        every metric in name order; ``json.dumps`` of the result is the
        fleet protocol's telemetry payload.
        """
        return {
            "schema": SNAPSHOT_WIRE_SCHEMA,
            "sequence": sequence,
            "metrics": [
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    **metric.wire_series(),
                }
                for metric in self
            ],
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_wire` output.

        Raises :class:`ValueError` on a schema mismatch or a malformed
        metric — a series value that is not an ``int`` or ``float`` (a
        ``bool`` is not), bucket counts that are not ints — since merging
        or rendering it would fail or corrupt the aggregate later.  The
        emission index is not state and is dropped.
        """
        schema = wire.get("schema")
        if schema != SNAPSHOT_WIRE_SCHEMA:
            raise ValueError(
                f"snapshot wire schema {schema!r} != expected "
                f"{SNAPSHOT_WIRE_SCHEMA!r}"
            )
        registry = cls()
        for entry in wire.get("metrics", ()):
            name, kind = entry["name"], entry["kind"]
            help = entry.get("help", "")
            label_names = tuple(entry.get("label_names", ()))
            series = entry.get("series", ())
            if kind == "histogram":
                histogram = registry.histogram(
                    name, help, label_names,
                    buckets=tuple(entry.get("buckets", ())),
                )
                for item in series:
                    counts = list(item["bucket_counts"])
                    if any(type(c) is not int for c in counts):
                        raise ValueError(f"{name}: bucket counts {counts!r} "
                                         "are not all ints")
                    histogram.set_state(
                        tuple(item["labels"]), counts,
                        float(item.get("sum", 0.0)),
                        int(item.get("count", 0)),
                    )
            elif kind in ("counter", "gauge"):
                values = (registry.counter if kind == "counter"
                          else registry.gauge)(name, help, label_names).values
                for item in series:
                    value = item["value"]
                    if type(value) not in (int, float):
                        raise ValueError(f"{name}: series value {value!r} "
                                         "is not a number")
                    values[tuple(item["labels"])] = value
            else:
                raise ValueError(f"{name}: unknown metric kind {kind!r}")
        return registry
