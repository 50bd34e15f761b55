"""Exporters: Prometheus text exposition and JSON lines.

Both formats render a :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  ``_bucket``/``_sum``/``_count`` expansion for histograms).  A scraper
  or ``promtool check metrics`` consumes it as-is.
* :func:`to_json` — one self-contained JSON object per emission
  (schema ``dart-telemetry/1``), designed for ``jq``-friendly JSON
  lines files: stable key order, labels as objects, histograms with
  explicit bucket bounds.  The emitter's emission index is an argument,
  not registry state.

:func:`parse_prometheus` parses this module's own exposition output
back into a registry — the round-trip property the exporter tests pin.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from .metrics import Histogram, LabelValues, MetricsRegistry

#: Stamped into every JSON emission; bump on breaking shape changes.
TELEMETRY_SCHEMA = "dart-telemetry/1"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, ch + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(label_names: Tuple[str, ...], labels: Tuple[str, ...],
                 extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(label_names, labels)
    ]
    pairs.extend(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in extra
    )
    return "{" + ",".join(pairs) + "}" if pairs else ""


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry:
        name = metric.name
        if metric.help:
            escaped = metric.help.replace("\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {name} {escaped}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels in sorted(metric.bucket_counts):
                counts = metric.bucket_counts[labels]
                cumulative = 0
                for bound, count in zip(
                    metric.buckets + (math.inf,), counts
                ):
                    cumulative += count
                    le = "+Inf" if bound == math.inf else _format_value(bound)
                    labels_text = _labels_text(
                        metric.label_names, labels, (("le", le),)
                    )
                    lines.append(f"{name}_bucket{labels_text} {cumulative}")
                plain = _labels_text(metric.label_names, labels)
                lines.append(
                    f"{name}_sum{plain} "
                    f"{_format_value(metric.sums.get(labels, 0.0))}"
                )
                lines.append(
                    f"{name}_count{plain} {metric.counts.get(labels, 0)}"
                )
        else:
            for labels, value in sorted(metric.values.items()):  # type: ignore[attr-defined]
                labels_text = _labels_text(metric.label_names, labels)
                lines.append(f"{name}{labels_text} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def to_json(registry: MetricsRegistry, *, sequence: int = 0,
            timestamp_unix_ns: Optional[int] = None) -> str:
    """Render a registry as one JSON line (schema ``dart-telemetry/1``).

    ``sequence`` is the emitter's emission index.
    """
    metrics = [
        {
            "name": metric.name,
            "kind": metric.kind,
            "labels": list(metric.label_names),
            **metric.wire_series(),
        }
        for metric in registry
    ]
    payload: Dict[str, object] = {
        "schema": TELEMETRY_SCHEMA,
        "sequence": sequence,
        "metrics": metrics,
    }
    if timestamp_unix_ns is not None:
        payload["timestamp_unix_ns"] = timestamp_unix_ns
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def _parse_sample_line(line: str) -> Tuple[str, Dict[str, str], float]:
    """One exposition sample line -> (name, labels, value)."""
    if "{" in line:
        name, rest = line.split("{", 1)
        labels_text, value_text = rest.rsplit("} ", 1)
        labels: Dict[str, str] = {}
        i = 0
        while i < len(labels_text):
            eq = labels_text.index("=", i)
            key = labels_text[i:eq]
            assert labels_text[eq + 1] == '"'
            j = eq + 2
            while labels_text[j] != '"':
                if labels_text[j] == "\\":
                    j += 1
                j += 1
            labels[key] = _unescape_label_value(labels_text[eq + 2:j])
            i = j + 1
            if i < len(labels_text) and labels_text[i] == ",":
                i += 1
    else:
        name, value_text = line.rsplit(" ", 1)
        labels = {}
    value_text = value_text.strip()
    if value_text == "+Inf":
        value = math.inf
    elif value_text == "-Inf":
        value = -math.inf
    else:
        value = float(value_text)
    return name.strip(), labels, value


def parse_prometheus(text: str) -> MetricsRegistry:
    """Parse :func:`to_prometheus` output back into a registry.

    Supports the subset this module emits (which is what the round-trip
    tests need): counters, gauges, and histograms with cumulative
    ``le`` buckets.  ``# HELP`` text survives the round trip.
    """
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            kinds[name] = kind
        elif line.startswith("# HELP "):
            _, _, name, help_text = line.split(" ", 3)
            helps[name] = help_text.replace(r"\n", "\n").replace(r"\\", "\\")
        elif line.startswith("#"):
            continue
        else:
            samples.append(_parse_sample_line(line))

    def base_name(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and kinds.get(trimmed) == \
                    "histogram":
                return trimmed
        return sample_name

    registry = MetricsRegistry()
    label_names: Dict[str, Tuple[str, ...]] = {}
    # Histogram samples gather per labelset first: the cumulative
    # ``le`` buckets are de-cumulated once every bound has been seen.
    bucket_samples: Dict[str, Dict[LabelValues, List[Tuple[float, int]]]] = {}
    sums: Dict[Tuple[str, LabelValues], float] = {}
    counts: Dict[Tuple[str, LabelValues], int] = {}
    for sample_name, labels, value in samples:
        name = base_name(sample_name)
        names = label_names.setdefault(
            name, tuple(k for k in labels if k != "le")
        )
        labelset = tuple(labels[k] for k in names)
        kind = kinds.get(name)
        if kind != "histogram":
            make = registry.counter if kind == "counter" else registry.gauge
            make(name, helps.get(name, ""), names).values[labelset] = value
        elif sample_name.endswith("_sum"):
            sums[name, labelset] = value
        elif sample_name.endswith("_count"):
            counts[name, labelset] = int(value)
        else:  # _bucket
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            bucket_samples.setdefault(name, {}).setdefault(
                labelset, []
            ).append((bound, int(value)))
    for name, series in bucket_samples.items():
        bounds = {bound for points in series.values()
                  for bound, _ in points if bound != math.inf}
        histogram = registry.histogram(
            name, helps.get(name, ""), label_names[name],
            buckets=tuple(sorted(bounds)),
        )
        for labelset, points in series.items():
            cumulative = [count for _, count in sorted(points)]
            histogram.set_state(
                labelset,
                [c - p for c, p in zip(cumulative, [0] + cumulative[:-1])],
                sums.get((name, labelset), 0.0),
                counts.get((name, labelset), 0),
            )
    return registry
