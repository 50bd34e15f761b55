"""The Dart pipeline: classification, RT, PT, recirculation, analytics.

This is the top-level monitor (paper Fig 3).  Each observed packet is
processed first on its SEQ role (if it carries data) and then on its ACK
role (if it carries an acknowledgment), mirroring the hardware's
process-then-recirculate handling of dual-role packets (§5.1).

The recirculation loop implemented here (paper §3.2):

1. A PT insertion that evicts a record — or leaves the inserted record
   unplaced — produces a *candidate* for recirculation.
2. Cycle detection: a candidate about to chase the record that it itself
   evicted earlier self-destructs.
3. The per-record recirculation budget is enforced.
4. With ``analytics_purge`` on, the analytics module may veto the
   recirculation when the record can no longer produce a useful sample
   (§3.3).
5. A surviving candidate re-consults the Range Tracker; stale records
   self-destruct, valid ones re-enter PT insertion.

With ``recirculation_delay_packets == 0`` recirculated records re-enter
immediately (the idealized simulator the paper evaluates with); a
positive delay makes them re-enter after that many subsequent packets,
modelling recirculation latency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..net import tcp as tcp_mod
from ..net.framing import REC_V6, decode_batch, header_rows
from ..net.inet import prefix_of
from ..net.packet import PacketRecord
from .analytics import CollectAllAnalytics
from .config import DartConfig
from .flow import FlowKey, intern_flow
from .packet_tracker import (
    InsertStatus,
    PtRecord,
    make_packet_table,
)
from .range_tracker import AckVerdict, RangeTracker, SeqVerdict
from .samples import RttSample

LegFilter = Callable[[PacketRecord], Optional[str]]
TargetFilter = Callable[[PacketRecord], bool]

EXTERNAL_LEG = "external"
INTERNAL_LEG = "internal"

_SYN = tcp_mod.FLAG_SYN
_FIN = tcp_mod.FLAG_FIN

#: Role bits of a classified packet: everything the kernel needs to
#: know of its TCP flags, its payload and the operator's target filter.
ROLE_DATA = 1  # consumes sequence space: payload, SYN or FIN
ROLE_ACK = 2
ROLE_SYN = 4
ROLE_RST = 8
ROLE_FILTERED = 16  # rejected by ``target_filter``; excludes the rest

#: Role bits by TCP flag byte (a payload adds ``ROLE_DATA`` on top).
#: Both classifiers — per record and per column — index this one table.
FLAG_ROLES = tuple(
    (ROLE_DATA if flags & (_SYN | _FIN) else 0)
    | (ROLE_ACK if flags & tcp_mod.FLAG_ACK else 0)
    | (ROLE_SYN if flags & _SYN else 0)
    | (ROLE_RST if flags & tcp_mod.FLAG_RST else 0)
    for flags in range(256)
)

#: Records per chunk when :class:`~repro.engine.MonitorEngine` drains a
#: trace through each monitor's ``process_batch``.
TRACE_CHUNK = 8192


@dataclass(slots=True)
class DartStats:
    """Pipeline-level counters behind the §6.2 metrics.

    Every field is either a plain additive counter or a verdict→count
    mapping, so two stats objects merge by summation — the property the
    sharded coordinator (:mod:`repro.cluster`) relies on.
    """

    packets_processed: int = 0
    seq_packets: int = 0
    ack_packets: int = 0
    ignored_syn: int = 0
    ignored_rst: int = 0
    filtered_out: int = 0
    tracked_inserts: int = 0
    samples: int = 0
    handshake_samples: int = 0
    evictions: int = 0
    recirculations: int = 0
    stale_self_destructs: int = 0
    cycle_self_destructs: int = 0
    budget_drops: int = 0
    analytics_purges: int = 0
    shadow_discards: int = 0
    shadow_false_discards: int = 0
    shadow_false_keeps: int = 0
    #: ACKs matched to a data packet stamped later than themselves (a
    #: capture clock that ran backwards): dropped, never a sample.
    negative_rtt_drops: int = 0
    seq_verdicts: Dict[SeqVerdict, int] = field(default_factory=dict)
    ack_verdicts: Dict[AckVerdict, int] = field(default_factory=dict)

    @staticmethod
    def _bump(verdicts: Dict, verdict, count: int = 1) -> None:
        """Count a verdict (the single write path into the verdict dicts)."""
        verdicts[verdict] = verdicts.get(verdict, 0) + count

    def merge(self, other: "DartStats") -> "DartStats":
        """Fold ``other``'s counts into this object; returns self.

        Plain counters add; verdict histograms add per verdict.  Used to
        aggregate per-shard stats into a cluster-wide view.
        """
        for f in fields(self):
            if f.name in ("seq_verdicts", "ack_verdicts"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for verdict, count in other.seq_verdicts.items():
            self._bump(self.seq_verdicts, verdict, count)
        for verdict, count in other.ack_verdicts.items():
            self._bump(self.ack_verdicts, verdict, count)
        return self

    def recirculations_per_packet(self) -> float:
        """The paper's recirculation-overhead metric (Figs 11c/12c/13c)."""
        if self.packets_processed == 0:
            return 0.0
        return self.recirculations / self.packets_processed


class Dart:
    """A Dart monitor instance.

    Args:
        config: table sizing and behaviour knobs (default: ideal mode).
        analytics: sample consumer with optional ``worth_recirculating``;
            defaults to :class:`CollectAllAnalytics`.
        leg_filter: maps a *data* packet to the leg it measures
            ("external"/"internal"), or None to skip tracking it.  When
            omitted, every data packet is tracked (both legs, unlabeled).
        target_filter: operator flow-selection rules (paper §4,
            "specifying target flows"); packets rejected by the filter are
            not processed at all.

    :meth:`process`, :meth:`process_batch`, :meth:`process_columns`
    and :meth:`process_framed` only *classify* their input into rows
    for :meth:`_packet`, the
    single per-packet kernel and the only code that touches the
    trackers.  A subclass that must see (or fail on) every packet
    overrides ``_packet`` alone, whatever the entry point.
    """

    def __init__(
        self,
        config: Optional[DartConfig] = None,
        *,
        analytics=None,
        leg_filter: Optional[LegFilter] = None,
        target_filter: Optional[TargetFilter] = None,
    ) -> None:
        self.config = config or DartConfig()
        self.analytics = analytics if analytics is not None else CollectAllAnalytics()
        self._leg_filter = leg_filter
        self._target_filter = target_filter
        self.range_tracker = RangeTracker(
            self.config.rt_slots,
            overwrite_collapsed=self.config.rt_overwrite_collapsed,
            handle_wraparound=self.config.handle_wraparound,
            timeout_ns=self.config.rt_timeout_ns,
        )
        self.packet_tracker = make_packet_table(
            self.config.pt_slots, self.config.pt_stages
        )
        self.stats = DartStats()
        self._next_record_id = 0
        self._now_ns = 0
        self._recirc_queue: Deque[Tuple[int, PtRecord]] = deque()
        # §7 shadow RT: a lagging copy of the Range Tracker placed after
        # the PT, letting stale evicted records die without recirculating.
        self._shadow_tracker: Optional[RangeTracker] = None
        self._shadow_queue: Deque[Tuple[int, str, FlowKey, int, int]] = deque()
        if self.config.shadow_rt:
            self._shadow_tracker = RangeTracker(
                self.config.rt_slots,
                overwrite_collapsed=self.config.rt_overwrite_collapsed,
                handle_wraparound=self.config.handle_wraparound,
            )

    # -- Packet entry points -------------------------------------------------

    def process(self, record: PacketRecord) -> List[RttSample]:
        """Process one observed packet; returns samples it produced."""
        sample = self._packet(*self._classify(record))
        return [] if sample is None else [sample]

    def process_batch(self, records: Iterable[Optional[PacketRecord]]
                      ) -> List[RttSample]:
        """Process a batch of packets: :meth:`process` per record with
        the method lookups hoisted out of the loop.

        ``None`` entries are skipped entirely: the pcap decoder yields
        ``None`` for non-TCP frames, so a decoded capture block can be
        fed as-is.  Returns the samples produced, in order.
        """
        packet = self._packet
        classify = self._classify
        samples: List[RttSample] = []
        append = samples.append
        for record in records:
            if record is None:  # non-TCP frame, already dropped by decode
                continue
            sample = packet(*classify(record))
            if sample is not None:
                append(sample)
        return samples

    def process_columns(self, cols) -> List[RttSample]:
        """Process a decoded columnar batch
        (:class:`~repro.net.columnar.PacketColumns`).

        The columnar classifier: roles and expected ACKs are computed
        batch-wide as numpy columns and each ``KIND_VEC`` row goes to
        the kernel straight from the column values, no
        :class:`PacketRecord` in between.  ``KIND_RECORD`` rows (IPv6,
        IP/TCP options) take the record classifier; so does the whole
        batch under a leg or target filter, which need a
        :class:`PacketRecord`.  Same stats, samples, analytics windows
        and table state as ``process_batch(cols.to_records())``.
        """
        if self._target_filter is not None or self._leg_filter is not None:
            return self.process_batch(cols.to_records())
        from ..fastpath import classify
        from ..net.columnar import KIND_RECORD, KIND_SKIP

        kinds = cols.kinds.tolist()
        ts_col = cols.timestamps.tolist()
        src = cols.src_ip.tolist()
        dst = cols.dst_ip.tolist()
        sport = cols.src_port.tolist()
        dport = cols.dst_port.tolist()
        seq_col = cols.seq.tolist()
        ack_col = cols.ack.tolist()
        role = classify.roles(cols).tolist()
        eack_col = classify.eack_values(cols).tolist()

        packet = self._packet
        samples: List[RttSample] = []
        append = samples.append
        for i in range(cols.n):
            kind = kinds[i]
            if kind == KIND_SKIP:
                continue
            if kind == KIND_RECORD:
                sample = packet(*self._classify(cols.records[i]))
            else:
                sample = packet(
                    ts_col[i], role[i], src[i], dst[i], sport[i], dport[i],
                    False, seq_col[i], eack_col[i], ack_col[i], None)
            if sample is not None:
                append(sample)
        return samples

    def process_framed(self, payload) -> List[RttSample]:
        """Process a framed byte batch (:mod:`repro.net.framing`), as a
        cluster process worker receives it.

        The framed classifier: each packet's header tuple
        (:func:`~repro.net.framing.header_rows` — one ``struct`` read
        for a batch of ``REC_V4`` records) becomes a kernel row here, by
        the same rule as :meth:`_classify`, with no
        :class:`PacketRecord` and no numpy in between.  A leg or target
        filter, which takes a :class:`PacketRecord`, sends the whole
        batch to ``process_batch(decode_batch(payload))``.  Same stats,
        samples, analytics windows and table state as that call, and the
        same error for a damaged batch, raised before any of its packets
        reach the kernel.
        """
        if self._target_filter is not None or self._leg_filter is not None:
            return self.process_batch(decode_batch(payload))
        packet = self._packet
        roles = FLAG_ROLES
        samples: List[RttSample] = []
        append = samples.append
        for (_, kind, ts, src, dst, sport, dport, seq, ack, flags,
             payload_len) in header_rows(payload):
            # eack: SYN (0x02) and FIN (0x01) each consume one number.
            sample = packet(
                ts, roles[flags & 0xFF] | (payload_len > 0), src, dst, sport,
                dport, kind == REC_V6, seq,
                (seq + payload_len + (flags & 1) + (flags >> 1 & 1))
                & 0xFFFFFFFF, ack, None)
            if sample is not None:
                append(sample)
        return samples

    def finalize(self, at_ns: Optional[int] = None) -> None:
        """Signal end-of-trace to the analytics (flush open windows).

        ``at_ns`` overrides the flush timestamp when this instance saw
        only part of a stream whose true end is later — a flow-sharded
        worker flushes at the global trace end so its closed windows
        match what a serial run would have produced.
        """
        flush = getattr(self.analytics, "flush", None)
        if flush is not None:
            now = self._now_ns if at_ns is None else max(at_ns, self._now_ns)
            flush(now)

    # -- Classification and the per-packet kernel ------------------------------

    def _classify(self, record: PacketRecord) -> tuple:
        """The record classifier: one :meth:`_packet` row.

        The target filter decides ``ROLE_FILTERED``; the leg filter
        labels a data packet or, returning None, strips its data role
        (the packet is not tracked, its ACK still is).
        """
        flags = record.flags
        seq = record.seq
        payload_len = record.payload_len
        leg: Optional[str] = None
        if self._target_filter is not None and not self._target_filter(record):
            role = ROLE_FILTERED
        else:
            role = FLAG_ROLES[flags & 0xFF] | (payload_len > 0)  # ROLE_DATA
            if role & ROLE_DATA and self._leg_filter is not None:
                leg = self._leg_filter(record)
                if leg is None:
                    role &= ~ROLE_DATA
        # record.eack, unrolled (SYN and FIN each consume one sequence
        # number) to spare the property-call chain per packet.
        eack = (seq + payload_len + (1 if flags & _SYN else 0)
                + (1 if flags & _FIN else 0)) & 0xFFFFFFFF
        return (record.timestamp_ns, role, record.src_ip, record.dst_ip,
                record.src_port, record.dst_port, record.ipv6, seq, eack,
                record.ack, leg)

    def _packet(self, ts: int, role: int, src: int, dst: int, sport: int,
                dport: int, ipv6: bool, seq: int, eack: int, ack: int,
                leg: Optional[str]) -> Optional[RttSample]:
        """The per-packet kernel: one classified row in, at most one
        sample out.  Overridden as ``def _packet(self, *row)``.

        The row is the packet and nothing else: arrival time ``ts``;
        ``role``, an OR of ``ROLE_*`` bits; the packet's own 4-tuple
        and ``ipv6``; ``seq`` and the expected ACK ``eack`` (data
        role); ``ack`` (ACK role); ``leg``, the leg filter's label.
        No hash crosses this boundary: each table's key hashes where
        the table is (``FlowKey``/``PtRecord`` cache theirs on first
        use), whatever the entry point.
        """
        stats = self.stats
        stats.packets_processed += 1
        self._now_ns = ts
        if self._recirc_queue:
            self._drain_due_recirculations()
        shadow = self._shadow_tracker
        if shadow is not None:
            self._drain_shadow_updates()

        if role & ROLE_FILTERED:
            stats.filtered_out += 1
            return None
        if role & ROLE_SYN and not self.config.track_handshake:
            # -SYN mode ignores SYN and SYN-ACK entirely (robust to SYN
            # floods; no RT/PT state until the handshake completes).
            stats.ignored_syn += 1
            return None
        if role & ROLE_RST:
            stats.ignored_rst += 1
            return None

        if role & ROLE_DATA:
            # SEQ side: RT verdict, then PT insertion.
            flow = intern_flow(src, dst, sport, dport, ipv6)
            stats.seq_packets += 1
            if shadow is not None:
                self._enqueue_shadow_update("data", flow, seq, eack)
            verdict = self.range_tracker.on_data(flow, seq, eack, ts)
            verdicts = stats.seq_verdicts
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict.trackable:
                pt_record = PtRecord(
                    self._next_record_id, flow, flow.signature, eack, ts,
                    bool(role & ROLE_SYN), leg)
                self._next_record_id += 1
                stats.tracked_inserts += 1
                self._insertion_loop(pt_record)

        if not role & ROLE_ACK:
            return None
        # ACK side: the flow acknowledged is the packet's tuple reversed
        # (a SYN-ACK acknowledges the client's SYN, +SYN mode only).
        flow = intern_flow(dst, src, dport, sport, ipv6)
        stats.ack_packets += 1
        if shadow is not None:
            self._enqueue_shadow_update("ack", flow, ack, 0)
        verdict = self.range_tracker.on_ack(flow, ack, ts)
        verdicts = stats.ack_verdicts
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if verdict is not AckVerdict.VALID:
            return None
        pt_record = self.packet_tracker.match_ack(flow, ack)
        if pt_record is None:
            return None
        rtt = ts - pt_record.timestamp_ns
        if rtt < 0:
            stats.negative_rtt_drops += 1
            return None
        sample = RttSample(pt_record.flow, rtt, ts, ack, pt_record.handshake,
                           pt_record.leg)
        stats.samples += 1
        if sample.handshake:
            stats.handshake_samples += 1
        self.analytics.add(sample)
        return sample

    # -- PT insertion and the recirculation loop -----------------------------

    def _insertion_loop(self, candidate: Optional[PtRecord]) -> None:
        """Run insertion passes until the record in flight settles.

        A pass displaces at most one record (the occupant it evicts, or
        the candidate itself when unplaced), so there is never a second
        one waiting: the loop follows a chain, not a work list.
        """
        while candidate is not None:
            outcome = self.packet_tracker.insert(candidate)
            status = outcome.status
            if (status is InsertStatus.PLACED
                    or status is InsertStatus.DUPLICATE):
                return
            if status is InsertStatus.CYCLE:
                self.stats.cycle_self_destructs += 1
                return
            if status is InsertStatus.PLACED_EVICTING:
                self.stats.evictions += 1
                candidate = self._consider_recirculation(
                    outcome.evicted, evictor_id=candidate.record_id
                )
            else:  # UNPLACED: the candidate itself needs another pass
                candidate = self._consider_recirculation(
                    candidate, evictor_id=None
                )

    def _consider_recirculation(
        self, candidate: PtRecord, *, evictor_id: Optional[int]
    ) -> Optional[PtRecord]:
        """Apply the §3.2 safeguards; returns work for an immediate pass.

        Returns the record when it should re-enter insertion right away,
        or None when it self-destructed or was queued for delayed
        re-entry.
        """
        if evictor_id is not None and candidate.last_evicted_id == evictor_id:
            # Cycle: evicted by the very record it evicted earlier.
            self.stats.cycle_self_destructs += 1
            return None
        if candidate.recirc_count >= self.config.max_recirculations:
            self.stats.budget_drops += 1
            return None
        if self._shadow_tracker is not None:
            # §7: end-of-pipeline staleness check against the RT copy —
            # a stale record dies here without consuming recirculation
            # bandwidth.  The copy lags, so track its mistakes.
            shadow_valid = self._shadow_tracker.revalidate(
                candidate.flow, candidate.eack
            )
            true_valid = self.range_tracker.revalidate(
                candidate.flow, candidate.eack, now_ns=self._now_ns
            )
            if not shadow_valid:
                self.stats.shadow_discards += 1
                if true_valid:
                    self.stats.shadow_false_discards += 1  # lost sample
                return None
            if not true_valid:
                self.stats.shadow_false_keeps += 1  # wasted recirculation
        if self.config.analytics_purge:
            worth = getattr(self.analytics, "worth_recirculating", None)
            if worth is not None and not worth(
                candidate.flow, candidate.timestamp_ns, self._now_ns
            ):
                self.stats.analytics_purges += 1
                return None
        candidate.recirc_count += 1
        self.stats.recirculations += 1
        if self.config.recirculation_delay_packets > 0:
            due = (
                self.stats.packets_processed
                + self.config.recirculation_delay_packets
            )
            self._recirc_queue.append((due, candidate))
            return None
        return self._revalidate(candidate)

    def _revalidate(self, candidate: PtRecord) -> Optional[PtRecord]:
        """RT second-chance check for a recirculated record."""
        if not self.range_tracker.revalidate(
            candidate.flow, candidate.eack, now_ns=self._now_ns
        ):
            self.stats.stale_self_destructs += 1
            return None
        return candidate

    def _enqueue_shadow_update(self, kind: str, flow: FlowKey, a: int,
                               b: int) -> None:
        due = self.stats.packets_processed + self.config.shadow_rt_lag_packets
        self._shadow_queue.append((due, kind, flow, a, b))

    def _drain_shadow_updates(self) -> None:
        while (self._shadow_queue
               and self._shadow_queue[0][0] <= self.stats.packets_processed):
            _, kind, flow, a, b = self._shadow_queue.popleft()
            if kind == "data":
                self._shadow_tracker.on_data(flow, a, b)
            else:
                self._shadow_tracker.on_ack(flow, a)

    def _drain_due_recirculations(self) -> None:
        """Re-enter recirculated records whose delay has elapsed."""
        while (
            self._recirc_queue
            and self._recirc_queue[0][0] <= self.stats.packets_processed
        ):
            _, candidate = self._recirc_queue.popleft()
            self._insertion_loop(self._revalidate(candidate))

    # -- Introspection ---------------------------------------------------------

    @property
    def samples(self) -> List[RttSample]:
        """Samples retained by the analytics (if it keeps any)."""
        return getattr(self.analytics, "samples", [])

    def drain_samples(self) -> List[RttSample]:
        """Hand over (and forget) the samples the analytics retained.

        Counters in :attr:`stats` are cumulative and unaffected, so a
        long-lived run can periodically empty the retained list (the
        streaming rotation) without breaking ``stats`` or the live
        sample stream, which was already routed at emission time.
        Analytics that retain nothing (e.g. a bare
        :class:`MinFilterAnalytics`) drain as empty.
        """
        drain = getattr(self.analytics, "drain_samples", None)
        if callable(drain):
            return drain()
        retained = getattr(self.analytics, "samples", None)
        if isinstance(retained, list):
            drained = list(retained)
            retained.clear()
            return drained
        return []

    def occupancy(self) -> Tuple[int, int]:
        """Current (RT, PT) occupied-slot counts."""
        return self.range_tracker.occupancy(), self.packet_tracker.occupancy()


@dataclass(frozen=True)
class PrefixLegFilter:
    """Picklable leg filter: internal network given as a prefix.

    Same semantics as :func:`make_leg_filter` over an "is the source
    address inside this prefix?" predicate, but a frozen dataclass
    instead of a closure so monitors configured with it can cross the
    cluster's process boundary and be snapshotted into a streaming
    checkpoint (closures don't pickle).
    """

    network: int
    prefix_len: int
    legs: Tuple[str, ...] = (EXTERNAL_LEG, INTERNAL_LEG)

    def __call__(self, record: PacketRecord) -> Optional[str]:
        internal = prefix_of(record.src_ip, self.prefix_len) == self.network
        leg = EXTERNAL_LEG if internal else INTERNAL_LEG
        return leg if leg in self.legs else None


def make_leg_filter(
    is_internal: Callable[[int], bool],
    *,
    legs: Tuple[str, ...] = (EXTERNAL_LEG, INTERNAL_LEG),
) -> LegFilter:
    """Build a leg filter from an "is this address inside?" predicate.

    A data packet leaving the network (internal source) is matched by an
    ACK returning from the Internet — the *external* leg; a data packet
    entering (external source) is matched by the client's ACK — the
    *internal* leg (paper §2.1, Fig 1).
    """

    def leg_filter(record: PacketRecord) -> Optional[str]:
        leg = EXTERNAL_LEG if is_internal(record.src_ip) else INTERNAL_LEG
        return leg if leg in legs else None

    return leg_filter
