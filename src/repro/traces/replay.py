"""Trace replay utilities: feed packet streams into monitors.

The in-repo equivalent of the paper's tcpreplay setup (§5): any object
with a ``process(record)`` method (Dart, tcptrace, the strawman) can be
driven from a record list, a generator, or a pcap file on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Sequence

from ..net.packet import PacketRecord
from ..net.pcapng import read_any_capture

#: Records per chunk when feeding monitors through their batched entry
#: point; large enough to amortise the per-chunk overhead, small enough
#: that replay memory stays bounded on generator inputs.
REPLAY_CHUNK = 8192


@dataclass(slots=True)
class ReplayReport:
    """Outcome of one replay run."""

    packets: int
    wall_seconds: float

    @property
    def packets_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.packets / self.wall_seconds


def replay(records: Iterable[PacketRecord], *monitors) -> ReplayReport:
    """Feed every record to every monitor, in timestamp order.

    Monitors exposing ``process_batch`` (Dart, ShardedDart) are fed in
    chunks through the batched entry point; anything else gets the
    classic per-record ``process`` loop.  Per-monitor packet order is
    identical either way, and monitors are independent, so mixing
    batched and unbatched monitors in one replay is fine.

    The records are already decoded, so there is no decoder to pick:
    the columnar path earns its keep by vectorising the *decode* of raw
    frames (``MonitorEngine.ingest_wire_chunk``), and lifting parsed
    records into columns first measures slower than ``process_batch``.
    """
    batch_fns = [getattr(monitor, "process_batch", None)
                 for monitor in monitors]
    count = 0
    start = time.perf_counter()
    iterator = iter(records)
    while True:
        chunk = list(islice(iterator, REPLAY_CHUNK))
        if not chunk:
            break
        for monitor, batch_fn in zip(monitors, batch_fns):
            if batch_fn is not None:
                batch_fn(chunk)
            else:
                process = monitor.process
                for record in chunk:
                    process(record)
        count += len(chunk)
    elapsed = time.perf_counter() - start
    for monitor in monitors:
        finalize = getattr(monitor, "finalize", None)
        if finalize is not None:
            finalize()
    return ReplayReport(packets=count, wall_seconds=elapsed)


def replay_pcap(path, *monitors) -> ReplayReport:
    """Replay a capture file (pcap or pcapng) into the monitors."""
    return replay(read_any_capture(path), *monitors)


def split_by_leg(
    records: Sequence[PacketRecord], is_internal
) -> dict:
    """Partition a trace by the *data* direction.

    Returns ``{"outbound": [...], "inbound": [...]}`` where outbound
    packets have an internal source (their data measures the external
    leg) and inbound packets the reverse.
    """
    outbound: List[PacketRecord] = []
    inbound: List[PacketRecord] = []
    for record in records:
        if is_internal(record.src_ip):
            outbound.append(record)
        else:
            inbound.append(record)
    return {"outbound": outbound, "inbound": inbound}
