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
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..net import tcp as tcp_mod
from ..net.framing import REC_V6, header_rows
from ..net.inet import InternalNetwork
from ..net.packet import PacketRecord
from .analytics import CollectAllAnalytics
from .config import DartConfig
from .flow import FlowKey, intern_flow
from .packet_tracker import (
    InsertOutcome,
    InsertStatus,
    PtRecord,
    make_packet_table,
    new_row,
)
from .range_tracker import AckVerdict, RangeTracker, SeqVerdict
from .samples import RttSample
from .stats import AdditiveCounters

#: Operator flow selection over a packet's ``(src_ip, dst_ip,
#: src_port, dst_port)``: e.g. :meth:`TargetFlowTable.matches`.
TargetFilter = Callable[[int, int, int, int], bool]

EXTERNAL_LEG = "external"
INTERNAL_LEG = "internal"

_SYN = tcp_mod.FLAG_SYN
_FIN = tcp_mod.FLAG_FIN

#: Role bits of a classified packet: everything the kernel needs to
#: know of its TCP flags and its payload.
ROLE_DATA = 1  # consumes sequence space: payload, SYN or FIN
ROLE_ACK = 2
ROLE_SYN = 4
ROLE_RST = 8

#: Role bits by TCP flag byte (a payload adds ``ROLE_DATA`` on top).
#: Both classifiers — per record and per column — index this one table.
FLAG_ROLES = tuple(
    (ROLE_DATA if flags & (_SYN | _FIN) else 0)
    | (ROLE_ACK if flags & tcp_mod.FLAG_ACK else 0)
    | (ROLE_SYN if flags & _SYN else 0)
    | (ROLE_RST if flags & tcp_mod.FLAG_RST else 0)
    for flags in range(256)
)

_PLACED = InsertStatus.PLACED

#: Records per chunk when :class:`~repro.engine.MonitorEngine` drains a
#: trace through each monitor's ``process_batch``.
TRACE_CHUNK = 8192


@dataclass(slots=True)
class DartStats(AdditiveCounters):
    """Pipeline-level counters behind the §6.2 metrics: Dart's one
    counter set, each kernel decision counted once.

    Every field is either a plain additive counter or a verdict→count
    mapping (its field ``metadata["keys"]`` names the verdict enum), so
    two stats objects merge by summation — the property the sharded
    coordinator (:mod:`repro.cluster`) relies on.
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
    #: Data packets whose PT key was already resident (a retransmission
    #: that slipped past range tracking): dropped, the older record kept.
    duplicate_inserts: int = 0
    seq_verdicts: Dict[SeqVerdict, int] = field(
        default_factory=dict, metadata={"keys": SeqVerdict})
    ack_verdicts: Dict[AckVerdict, int] = field(
        default_factory=dict, metadata={"keys": AckVerdict})

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
        leg_filter: maps a *data* packet's source address to the leg
            it measures ("external"/"internal"), or None to skip
            tracking it — a :class:`LegFilter`.  When omitted, every
            data packet is tracked (both legs, unlabeled).
        target_filter: operator flow-selection rules (paper §4,
            "specifying target flows") over the packet's 4-tuple;
            packets rejected by the filter are not processed at all.

    :meth:`process_batch`, :meth:`process_columns` and
    :meth:`process_framed` only *classify* their input into rows
    for :meth:`_packet`, the single per-packet kernel, the only code
    that touches the trackers and the one place both filters apply.
    A subclass that must see (or fail on) every packet
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
        return self.process_batch((record,))

    def process_batch(self, records: Iterable[Optional[PacketRecord]]
                      ) -> List[RttSample]:
        """Process a batch of packets; returns the samples produced, in
        order.

        The record classifier: each record is a tuple, unpacked straight
        into a kernel row by :meth:`process_framed`'s rule, with no call
        in between.  ``None`` entries are skipped entirely: the pcap
        decoder yields ``None`` for non-TCP frames, so a decoded capture
        block can be fed as-is.
        """
        packet = self._packet
        roles = FLAG_ROLES
        samples: List[RttSample] = []
        append = samples.append
        for record in records:
            if record is None:  # non-TCP frame, already dropped by decode
                continue
            (ts, src, dst, sport, dport, seq, ack, flags, payload_len,
             ipv6) = record
            # eack: SYN (0x02) and FIN (0x01) each consume one number.
            sample = packet(
                ts, roles[flags & 0xFF] | (payload_len > 0), src, dst, sport,
                dport, ipv6, seq,
                (seq + payload_len + (flags & 1) + (flags >> 1 & 1))
                & 0xFFFFFFFF, ack)
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
        IP/TCP options) go through :meth:`process_batch`.  Same stats,
        samples, analytics windows and table state as
        :meth:`process_batch` over the batch's records.
        """
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
                samples += self.process_batch((cols.records[i],))
                continue
            sample = packet(
                ts_col[i], role[i], src[i], dst[i], sport[i], dport[i],
                False, seq_col[i], eack_col[i], ack_col[i])
            if sample is not None:
                append(sample)
        return samples

    def process_framed(self, payload) -> List[RttSample]:
        """Process a framed byte batch (:mod:`repro.net.framing`), as a
        cluster process worker receives it.

        The framed classifier: each packet's header tuple
        (:func:`~repro.net.framing.header_rows` — one ``struct`` read
        for a batch of ``REC_V4`` records) becomes a kernel row here, by
        the same rule as :meth:`process_batch`, with no
        :class:`PacketRecord` and no numpy in between.  Same stats,
        samples, analytics windows and table state as
        :meth:`process_batch` over the decoded batch, and the same error
        for a damaged batch, raised before any of its packets reach the
        kernel.
        """
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
                & 0xFFFFFFFF, ack)
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

    # -- The per-packet kernel ------------------------------------------------

    def _packet(self, ts: int, role: int, src: int, dst: int, sport: int,
                dport: int, ipv6: bool, seq: int, eack: int,
                ack: int) -> Optional[RttSample]:
        """The per-packet kernel: one classified row in, at most one
        sample out.  Overridden as ``def _packet(self, *row)``.

        The row is the packet and nothing else: arrival time ``ts``;
        ``role``, an OR of ``ROLE_*`` bits; the packet's own 4-tuple
        and ``ipv6``; ``seq`` and the expected ACK ``eack`` (data
        role); ``ack`` (ACK role).  Both filters read these header
        fields here, as a switch's match-action tables would, so every
        entry point keeps its own row rule under any filter.  No hash
        crosses this boundary: each table's key hashes where the table
        is (the RT's once per ``FlowKey``, which caches it; the PT's
        ``(signature, eack)`` once per insertion or match pass),
        whatever the entry point.
        """
        stats = self.stats
        stats.packets_processed += 1
        self._now_ns = ts
        if self._recirc_queue:
            self._drain_due_recirculations()
        shadow = self._shadow_tracker
        if shadow is not None:
            self._drain_shadow_updates()

        target = self._target_filter
        if target is not None and not target(src, dst, sport, dport):
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

        # SEQ side: the leg filter labels the data packet or, returning
        # None, leaves it untracked (its ACK still is); then RT verdict
        # and PT insertion.
        leg: Optional[str] = None
        leg_filter = self._leg_filter
        if role & ROLE_DATA and (
                leg_filter is None or (leg := leg_filter(src)) is not None):
            flow = intern_flow(src, dst, sport, dport, ipv6)
            stats.seq_packets += 1
            if shadow is not None:
                self._enqueue_shadow_update("data", flow, seq, eack)
            verdict = self.range_tracker.on_data(flow, seq, eack, ts)
            verdicts = stats.seq_verdicts
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict.trackable:
                pt_record = new_row(PtRecord, (
                    self._next_record_id, flow,
                    flow._sig or flow.signature,  # cached by the RT's fetch
                    eack, ts, bool(role & ROLE_SYN), leg, 0, None))
                self._next_record_id += 1
                stats.tracked_inserts += 1
                outcome = self.packet_tracker.insert(pt_record)
                if outcome.status is not _PLACED:
                    self._insertion_loop(pt_record, outcome)

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
        handshake = pt_record.handshake
        sample = new_row(RttSample, (pt_record.flow, rtt, ts, ack, handshake,
                                     pt_record.leg))
        stats.samples += 1
        if handshake:
            stats.handshake_samples += 1
        self.analytics.add(sample)
        return sample

    # -- PT insertion and the recirculation loop -----------------------------

    def _insertion_loop(self, candidate: PtRecord,
                        outcome: InsertOutcome) -> None:
        """Settle the record in flight, from the outcome of its last
        insertion pass, running further passes as it recirculates.

        A pass displaces at most one record (the occupant it evicts, or
        the candidate itself when unplaced), so there is never a second
        one waiting: the loop follows a chain, not a work list.
        """
        while True:
            status = outcome.status
            if status is _PLACED:
                return
            if status is InsertStatus.DUPLICATE:
                self.stats.duplicate_inserts += 1
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
            if candidate is None:
                return
            outcome = self.packet_tracker.insert(candidate)

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
        candidate = new_row(PtRecord, candidate[:7] + (
            candidate.recirc_count + 1, candidate.last_evicted_id))
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
            candidate = self._revalidate(candidate)
            if candidate is not None:
                self._insertion_loop(
                    candidate, self.packet_tracker.insert(candidate))

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
class LegFilter:
    """The leg rule: which leg a data packet measures, by its source.

    A data packet leaving the network (internal source) is matched by an
    ACK returning from the Internet — the *external* leg; a data packet
    entering (external source) is matched by the client's ACK — the
    *internal* leg (paper §2.1, Fig 1).  A leg outside ``legs`` is not
    tracked.  Frozen and built from an :class:`InternalNetwork`, so a
    monitor configured with it crosses the cluster's process boundary
    and lands in a streaming checkpoint.
    """

    internal: InternalNetwork
    legs: Tuple[str, ...] = (EXTERNAL_LEG, INTERNAL_LEG)

    def __call__(self, src_ip: int) -> Optional[str]:
        leg = EXTERNAL_LEG if src_ip in self.internal else INTERNAL_LEG
        return leg if leg in self.legs else None
