"""Analysis tooling: distributions, §6.2 metrics, plain-text reports."""

from .accuracy import (
    ERROR_PERCENTILES,
    PairedAccuracy,
    compare_samples,
    pair_samples,
)
from .distributions import (
    ccdf,
    cdf,
    fraction_above,
    fraction_below,
    fraction_between,
    percentile,
    quantile_series,
    summarize,
)
from .metrics import (
    REPORTED_PERCENTILES,
    DartPerformance,
    collection_error_percent,
    evaluate_dart,
    fraction_collected_percent,
    worst_case_error_percent,
)
from .report import format_count, render_cdf, render_series, render_table
from .sketch import QuantileSketch

__all__ = [
    "DartPerformance",
    "ERROR_PERCENTILES",
    "PairedAccuracy",
    "compare_samples",
    "pair_samples",
    "QuantileSketch",
    "REPORTED_PERCENTILES",
    "ccdf",
    "cdf",
    "collection_error_percent",
    "evaluate_dart",
    "format_count",
    "fraction_above",
    "fraction_below",
    "fraction_between",
    "fraction_collected_percent",
    "percentile",
    "quantile_series",
    "render_cdf",
    "render_series",
    "render_table",
    "summarize",
    "worst_case_error_percent",
]
