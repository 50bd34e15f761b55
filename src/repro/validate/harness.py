"""Run matrix cells: trace generation → one engine pass → accuracy.

Each cell synthesizes its workload trace from the spec's derived seed,
then drives **Dart** and the **tcptrace oracle** through one
:class:`~repro.engine.engine.MonitorEngine` pass over the identical
record stream — exactly the one-pass comparison the benchmarks use —
and scores Dart's samples against the oracle's with
:func:`repro.analysis.accuracy.compare_samples`.

Dart runs with ``ideal_config`` (unconstrained tables): the matrix
measures *algorithmic* divergence under adversarial dynamics, not
capacity eviction, which the sizing benchmarks already cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..analysis.accuracy import PairedAccuracy, compare_samples
from ..core import LegFilter, ideal_config
from ..engine import MonitorEngine, MonitorOptions, create
from ..traces.datacenter import (
    FileTransferTraceConfig,
    IncastTraceConfig,
    VideoTraceConfig,
    WorkloadTrace,
    generate_file_transfer_trace,
    generate_incast_trace,
    generate_video_trace,
)
from .scenario import ScenarioSpec


def build_trace(spec: ScenarioSpec) -> WorkloadTrace:
    """Synthesize the cell's packet trace (bit-stable per spec)."""
    if spec.workload == "bulk":
        return generate_file_transfer_trace(
            FileTransferTraceConfig(
                seed=spec.seed,
                cc=spec.cc,
                loss_rate=spec.loss,
                reorder_rate=spec.reorder,
            )
        )
    if spec.workload == "incast":
        return generate_incast_trace(
            IncastTraceConfig(
                seed=spec.seed,
                cc=spec.cc,
                loss_rate=spec.loss,
                reorder_rate=spec.reorder,
            )
        )
    if spec.workload == "video":
        return generate_video_trace(
            VideoTraceConfig(
                seed=spec.seed,
                cc=spec.cc,
                loss_rate=spec.loss,
                reorder_rate=spec.reorder,
            )
        )
    raise ValueError(f"unknown workload {spec.workload!r}")


@dataclass
class CellResult:
    """One completed matrix cell."""

    spec: ScenarioSpec
    packets: int
    connections: int
    completed: int
    retransmissions: int
    timeouts: int
    accuracy: PairedAccuracy
    wall_seconds: float

    def to_dict(self) -> Dict:
        return {
            "scenario": self.spec.to_dict(),
            "trace": {
                "packets": self.packets,
                "connections": self.connections,
                "completed": self.completed,
                "retransmissions": self.retransmissions,
                "timeouts": self.timeouts,
            },
            "accuracy": self.accuracy.to_dict(),
            "wall_seconds": self.wall_seconds,
        }


def run_cell(spec: ScenarioSpec) -> CellResult:
    """Generate, monitor, and score one matrix cell."""
    started = time.perf_counter()
    trace = build_trace(spec)
    leg_filter = LegFilter(trace.internal)
    engine = MonitorEngine()
    engine.add_monitor(
        create("dart", MonitorOptions(config=ideal_config(),
                                      leg_filter=leg_filter)),
        name="dart",
    )
    engine.add_monitor(
        create("tcptrace", MonitorOptions(leg_filter=leg_filter,
                                          track_handshake=True)),
        name="tcptrace",
    )
    engine.run(trace.records)
    accuracy = compare_samples(
        engine["dart"].monitor.samples,
        engine["tcptrace"].monitor.samples,
    )
    return CellResult(
        spec=spec,
        packets=trace.packets,
        connections=trace.connections,
        completed=trace.completed,
        retransmissions=trace.retransmissions,
        timeouts=trace.timeouts,
        accuracy=accuracy,
        wall_seconds=time.perf_counter() - started,
    )


def run_matrix(
    specs: Iterable[ScenarioSpec],
    *,
    progress: Optional[Callable[[ScenarioSpec, CellResult], None]] = None,
) -> List[CellResult]:
    """Run every cell in order; cells are independent and deterministic."""
    results = []
    for spec in specs:
        result = run_cell(spec)
        results.append(result)
        if progress is not None:
            progress(spec, result)
    return results
