"""Dart core: the paper's primary contribution.

The public surface:

* :class:`Dart` — the monitor pipeline (Fig 3).
* :class:`DartConfig` — table sizing / behaviour knobs (§6.2 sweeps).
* :class:`RangeTracker` — per-flow measurement ranges (§3.1).
* The Packet Tracker backends — per-packet state with lazy eviction and
  recirculation (§3.2).
* Analytics — min-filtering and prefix aggregation (§3.3).
"""

from .analytics import (
    CollectAllAnalytics,
    DstPrefixKey,
    MinFilterAnalytics,
    PrefixMinAnalytics,
    WindowMinimum,
)
from .config import DartConfig, ideal_config, paper_default_config
from .flow import FlowKey, ack_target_flow, flow_of
from .hist import (
    DistributionAnalytics,
    DistributionFactory,
    HistogramSpec,
    RttHistogram,
    describe_key,
    exact_quantile,
)
from .packet_tracker import (
    AssociativePacketTable,
    InsertStatus,
    PtRecord,
    StagedPacketTable,
)
from .payload import PayloadSizeTable, arithmetic_payload_size
from .pipeline import (
    EXTERNAL_LEG,
    INTERNAL_LEG,
    Dart,
    DartStats,
    LegFilter,
)
from .range_tracker import (
    AckVerdict,
    RangeEntry,
    RangeTracker,
    SeqVerdict,
)
from .samples import (
    RttSample,
    SampleCollector,
)
from .targets import TargetFlowTable, TargetRule

__all__ = [
    "AckVerdict",
    "AssociativePacketTable",
    "CollectAllAnalytics",
    "Dart",
    "DartConfig",
    "DartStats",
    "DistributionAnalytics",
    "DistributionFactory",
    "DstPrefixKey",
    "EXTERNAL_LEG",
    "FlowKey",
    "HistogramSpec",
    "INTERNAL_LEG",
    "InsertStatus",
    "LegFilter",
    "MinFilterAnalytics",
    "PayloadSizeTable",
    "PrefixMinAnalytics",
    "PtRecord",
    "RangeEntry",
    "RangeTracker",
    "RttHistogram",
    "RttSample",
    "SampleCollector",
    "SeqVerdict",
    "StagedPacketTable",
    "TargetFlowTable",
    "TargetRule",
    "WindowMinimum",
    "ack_target_flow",
    "arithmetic_payload_size",
    "describe_key",
    "exact_quantile",
    "flow_of",
    "ideal_config",
    "paper_default_config",
]
