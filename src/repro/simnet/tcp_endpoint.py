"""Simulated TCP endpoints.

One :class:`TcpEndpoint` implements one side of a TCP connection with
the behaviours that matter to passive RTT measurement:

* three-way handshake with SYN retransmission and backoff;
* cumulative and *delayed* ACKs (ack-every-N plus a delayed-ACK timer);
* duplicate ACKs on out-of-order arrivals, cumulative ACKs on hole fill;
* a window-based sender whose slow-start / congestion-avoidance /
  loss-response logic delegates to a pluggable congestion controller
  (:mod:`repro.simnet.cc`: Reno, Cubic, or a BBR-style paced sender),
  with fast retransmit on three duplicate ACKs and RTO retransmission
  with exponential backoff;
* an RFC 6298 SRTT/RTTVAR retransmission-timeout estimator
  (:mod:`repro.simnet.rto`) fed by Karn-valid timing probes, with a
  fixed-RTO escape hatch (``TcpParams.adaptive_rto=False``);
* FIN teardown (FIN consumes one sequence number, like SYN);
* optional *keepalive straggler* behaviour: the final cumulative ACK
  bypasses the monitored path (asymmetric routing) and a duplicate
  keepalive ACK follows seconds later — reproducing the 100-second RTT
  tail the paper observes in the campus trace (§6.1).

Deliberate simplifications (documented for reviewers): no receive-window
flow control (cwnd is the only limit), no SACK-based recovery (SACK loss
recovery would *reduce* the retransmission ambiguity Dart must handle,
so the simulation errs toward more ambiguity), and payload bytes are
never materialized (only lengths travel).  A historical simplification
was the *static* base RTO (``TcpParams.rto_ns`` with no RTT feedback) —
retained behind ``adaptive_rto=False`` for experiments that need the
old behaviour (e.g. reproducing Jain's timeout-divergence pathology by
pinning the RTO below the path RTT), but real stacks adapt, and so does
the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..net import tcp as tcpf
from ..core.seqspace import SEQ_MASK, seq_sub
from .cc import make_cc
from .engine import EventLoop
from .link import Link
from .rng import SimRandom
from .rto import RtoEstimator
from .segment import SimSegment

MS = 1_000_000
SEC = 1_000_000_000


@dataclass
class TcpParams:
    """Endpoint behaviour knobs (one instance may be shared).

    ``rto_ns`` is the *initial* RTO (RFC 6298 §2.1) when
    ``adaptive_rto`` is on; with ``adaptive_rto=False`` it is the fixed
    base timeout the endpoint historically used (backoff still doubles
    it, and progress resets it).
    """

    mss: int = 1448
    init_cwnd: int = 10          # segments
    max_cwnd: int = 256          # segments
    init_ssthresh: int = 64      # segments
    cc: str = "reno"             # congestion control (repro.simnet.cc)
    rto_ns: int = 250 * MS       # initial (or fixed) retransmission timeout
    adaptive_rto: bool = True    # RFC 6298 estimator; False = fixed rto_ns
    rto_min_ns: int = 200 * MS
    rto_max_ns: int = 60 * SEC
    syn_rto_ns: int = 1 * SEC
    syn_retries: int = 3
    ack_every: int = 2           # cumulative-ACK frequency
    delayed_ack_ns: int = 40 * MS
    dupack_threshold: int = 3
    segment_gap_ns: int = 2_000  # serialization gap when bursting


@dataclass
class EndpointStats:
    segments_sent: int = 0
    data_segments_sent: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    partial_ack_retransmits: int = 0
    acks_sent: int = 0
    dup_acks_sent: int = 0
    delayed_acks_fired: int = 0
    bytes_received: int = 0
    keepalive_acks_sent: int = 0
    rtt_samples: int = 0


class TcpEndpoint:
    """One side of a simulated TCP connection."""

    def __init__(
        self,
        loop: EventLoop,
        rng: SimRandom,
        *,
        local_ip: int,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        isn: int,
        params: Optional[TcpParams] = None,
        role: str = "client",
        ipv6: bool = False,
        on_established: Optional[Callable[[], None]] = None,
        on_app_bytes: Optional[Callable[[int], None]] = None,
        on_send_complete: Optional[Callable[[], None]] = None,
        straggler_keepalive_ns: Optional[int] = None,
        expected_app_bytes: Optional[int] = None,
    ) -> None:
        self._loop = loop
        self._rng = rng
        self.params = params or TcpParams()
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.isn = isn & SEQ_MASK
        self.role = role
        self.ipv6 = ipv6
        self.stats = EndpointStats()

        self._pipe: Optional[Link] = None
        self._bypass: Optional[Callable[[SimSegment], None]] = None

        # Connection state machine.
        self.state = "CLOSED" if role == "client" else "LISTEN"
        self._on_established = on_established
        self._on_app_bytes = on_app_bytes
        self._on_send_complete = on_send_complete

        # Send side (relative byte offsets; 0 is the first app byte).
        self._snd_una = 0
        self._snd_nxt = 0
        self._app_bytes = 0
        self._fin_queued = False
        self._fin_sent = False
        self._send_done_signalled = False
        self._cc = make_cc(
            self.params.cc,
            init_cwnd=self.params.init_cwnd,
            init_ssthresh=self.params.init_ssthresh,
            max_cwnd=self.params.max_cwnd,
            mss=self.params.mss,
        )
        self._rto_est: Optional[RtoEstimator] = None
        if self.params.adaptive_rto:
            self._rto_est = RtoEstimator(
                initial_ns=self.params.rto_ns,
                min_ns=self.params.rto_min_ns,
                max_ns=self.params.rto_max_ns,
            )
            self._rto_ns = self._rto_est.rto_ns
        else:
            self._rto_ns = self.params.rto_ns
        self._dup_acks = 0
        #: Karn timing probe: ``(rel_end, sent_ns)`` for one in-flight
        #: segment that has never been retransmitted, or None.
        self._rtt_probe: Optional[Tuple[int, int]] = None
        # NewReno-style recovery: high-water mark at the last loss
        # event; partial ACKs below it retransmit the next hole at once
        # instead of waiting out one (backed-off) RTO per hole.
        self._recover_point = 0
        self._timer_gen = 0
        self._syn_attempts = 0
        self._next_send_ns = 0  # pacing cursor: keeps bursts in seq order

        # Receive side.
        self._peer_isn: Optional[int] = None
        self._rcv_nxt = 0            # relative to peer_isn + 1
        self._ooo: List[Tuple[int, int]] = []   # sorted disjoint intervals
        self._pending_ack_segments = 0
        self._delack_gen = 0
        self._peer_fin_rel: Optional[int] = None

        # Keepalive-straggler behaviour.
        self._straggler_keepalive_ns = straggler_keepalive_ns
        self._expected_app_bytes = expected_app_bytes
        self._straggler_done = False

    # -- wiring ---------------------------------------------------------------

    def connect_pipe(self, pipe: Link,
                     bypass: Optional[Callable[[SimSegment], None]] = None) -> None:
        """Attach the outgoing link (and optional unmonitored bypass)."""
        self._pipe = pipe
        self._bypass = bypass

    # -- public API -------------------------------------------------------------

    def open(self) -> None:
        """Client: start the three-way handshake."""
        if self.role != "client":
            raise RuntimeError("only clients open connections")
        self.state = "SYN_SENT"
        self._send_syn()

    def send_app_data(self, nbytes: int) -> None:
        """Queue application bytes (sent once ESTABLISHED)."""
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        self._app_bytes += nbytes
        if self.state == "ESTABLISHED":
            self._pump()

    def close_when_done(self) -> None:
        """Send FIN after all queued app data is transmitted."""
        self._fin_queued = True
        if self.state == "ESTABLISHED":
            self._pump()

    @property
    def established(self) -> bool:
        return self.state == "ESTABLISHED" or self.state == "CLOSING"

    @property
    def congestion_control(self):
        """The live congestion controller (for inspection and tests)."""
        return self._cc

    @property
    def cwnd(self) -> int:
        """Current congestion window, in segments."""
        return self._cc.cwnd_segments

    @property
    def ssthresh(self) -> int:
        """Current slow-start threshold, in segments."""
        return self._cc.ssthresh_segments

    @property
    def srtt_ns(self) -> Optional[int]:
        """Smoothed RTT (None until the first Karn-valid measurement)."""
        return self._rto_est.srtt_ns if self._rto_est is not None else None

    @property
    def rto_ns(self) -> int:
        """The current retransmission timeout."""
        return self._rto_ns

    # -- sequence mapping ---------------------------------------------------------

    def _abs_seq(self, rel: int) -> int:
        return (self.isn + 1 + rel) & SEQ_MASK

    def _rel_of_ack(self, ack_abs: int) -> int:
        return seq_sub(ack_abs, (self.isn + 1) & SEQ_MASK)

    def _current_ack_abs(self) -> int:
        # _rcv_nxt already includes the peer FIN's virtual byte (it is
        # absorbed through the same interval machinery as payload).
        if self._peer_isn is None:
            return 0
        return (self._peer_isn + 1 + self._rcv_nxt) & SEQ_MASK

    @property
    def app_bytes_delivered(self) -> int:
        """Cumulative in-order application bytes received (FIN excluded)."""
        delivered = self._rcv_nxt
        if self._peer_fin_rel is not None and self._rcv_nxt > self._peer_fin_rel:
            delivered -= 1
        return delivered

    # -- segment construction ------------------------------------------------------

    def _emit(self, segment: SimSegment, *, via_bypass: bool = False) -> None:
        if via_bypass and self._bypass is not None:
            self._bypass(segment)
            return
        if self._pipe is None:
            raise RuntimeError("endpoint has no outgoing pipe")
        self.stats.segments_sent += 1
        self._pipe.send(segment)

    def _make_segment(
        self, *, seq: int, ack: int, flags: int, payload_len: int = 0
    ) -> SimSegment:
        return SimSegment(
            src_ip=self.local_ip,
            dst_ip=self.remote_ip,
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload_len=payload_len,
            ipv6=self.ipv6,
        )

    # -- handshake -------------------------------------------------------------------

    def _send_syn(self) -> None:
        self._syn_attempts += 1
        self._emit(self._make_segment(seq=self.isn, ack=0, flags=tcpf.FLAG_SYN))
        gen = self._bump_timer()
        backoff = self.params.syn_rto_ns * (1 << (self._syn_attempts - 1))
        self._loop.schedule(backoff, self._syn_timeout, gen)

    def _syn_timeout(self, gen: int) -> None:
        if gen != self._timer_gen or self.state != "SYN_SENT":
            return
        if self._syn_attempts > self.params.syn_retries:
            self.state = "FAILED"
            return
        self.stats.retransmissions += 1
        self._send_syn()

    def _send_syn_ack(self) -> None:
        self._emit(
            self._make_segment(
                seq=self.isn,
                ack=self._current_ack_abs(),
                flags=tcpf.FLAG_SYN | tcpf.FLAG_ACK,
            )
        )
        gen = self._bump_timer()
        self._loop.schedule(self.params.syn_rto_ns, self._syn_ack_timeout, gen)

    def _syn_ack_timeout(self, gen: int) -> None:
        if gen != self._timer_gen or self.state != "SYN_RCVD":
            return
        self.stats.retransmissions += 1
        self._send_syn_ack()

    # -- receive path ----------------------------------------------------------------

    def receive(self, segment: SimSegment) -> None:
        """Entry point for segments delivered by the network."""
        if segment.syn and not segment.flags & tcpf.FLAG_ACK:
            self._handle_syn(segment)
            return
        if segment.syn and segment.flags & tcpf.FLAG_ACK:
            self._handle_syn_ack(segment)
            return
        if self.state in ("CLOSED", "LISTEN", "FAILED", "SYN_SENT"):
            return
        if self.state == "SYN_RCVD":
            # The handshake-completing ACK.
            self.state = "ESTABLISHED"
            self._bump_timer()
            if self._on_established is not None:
                self._on_established()
        consumed = segment.payload_len + (1 if segment.fin else 0)
        if consumed > 0:
            self._handle_data(segment, consumed)
        if segment.flags & tcpf.FLAG_ACK:
            # RFC 5681: only a segment with no payload counts as a
            # *duplicate* ACK (data packets repeat the cumulative ACK as
            # a matter of course while traffic flows both ways).
            self._handle_ack(segment.ack, pure=consumed == 0)

    def _handle_syn(self, segment: SimSegment) -> None:
        if self.role != "server" or self.state not in ("LISTEN", "SYN_RCVD"):
            return
        self._peer_isn = segment.seq
        self.state = "SYN_RCVD"
        self._send_syn_ack()

    def _handle_syn_ack(self, segment: SimSegment) -> None:
        if self.role != "client" or self.state != "SYN_SENT":
            # A retransmitted SYN-ACK after establishment: re-ACK it.
            if self.role == "client" and self.state == "ESTABLISHED":
                self._send_pure_ack()
            return
        self._peer_isn = segment.seq
        self.state = "ESTABLISHED"
        self._bump_timer()
        self._send_pure_ack()
        if self._on_established is not None:
            self._on_established()
        self._pump()

    # -- data receive ------------------------------------------------------------------

    def _handle_data(self, segment: SimSegment, consumed: int) -> None:
        if self._peer_isn is None:
            return
        rel = seq_sub(segment.seq, (self._peer_isn + 1) & SEQ_MASK)
        if segment.fin:
            self._peer_fin_rel = rel + segment.payload_len
        start, end = rel, rel + consumed
        if end <= self._rcv_nxt:
            # Entirely old data (a retransmission we already have):
            # immediately re-ACK so the sender can move on.
            self._send_pure_ack(dup=True)
            return
        if start > self._rcv_nxt:
            # Out of order: buffer and emit a duplicate ACK.
            self._insert_ooo(start, end)
            self._send_pure_ack(dup=True)
            return
        # In-order (possibly overlapping) data: advance and absorb.
        advanced = end - self._rcv_nxt
        self._rcv_nxt = end
        filled_hole = self._absorb_ooo()
        self.stats.bytes_received += advanced
        self._pending_ack_segments += 1
        if self._on_app_bytes is not None:
            # The application may respond with data of its own, which
            # piggybacks the ACK (clearing the pending-ACK state), so no
            # redundant pure ACK follows — real stacks piggyback.
            self._on_app_bytes(self.app_bytes_delivered)
        if self._pending_ack_segments == 0:
            return  # acknowledged by piggyback
        if filled_hole or segment.fin:
            self._flush_ack()
            return
        if self._pending_ack_segments >= self.params.ack_every:
            self._flush_ack()
        else:
            self._arm_delayed_ack()

    def _insert_ooo(self, start: int, end: int) -> None:
        intervals = self._ooo + [(start, end)]
        intervals.sort()
        merged: List[Tuple[int, int]] = []
        for s, e in intervals:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _absorb_ooo(self) -> bool:
        """Consume buffered intervals now contiguous; True if any were."""
        absorbed = False
        while self._ooo and self._ooo[0][0] <= self._rcv_nxt:
            start, end = self._ooo.pop(0)
            if end > self._rcv_nxt:
                self._rcv_nxt = end
                absorbed = True
        return absorbed

    # -- ACK transmission -----------------------------------------------------------------

    def _ack_covers_everything(self) -> bool:
        if self._expected_app_bytes is None:
            return False
        covered = self._rcv_nxt
        if self._peer_fin_rel is not None and self._rcv_nxt > self._peer_fin_rel:
            covered -= 1  # don't count the FIN's virtual byte
        return covered >= self._expected_app_bytes

    def _send_pure_ack(self, *, dup: bool = False, keepalive: bool = False) -> None:
        if self._peer_isn is None:
            return
        if (
            self._straggler_keepalive_ns is not None
            and not self._straggler_done
            and not keepalive
            and self._ack_covers_everything()
        ):
            # Straggler: the real final ACK takes an unmonitored path; a
            # duplicate keepalive ACK follows much later on the monitored
            # one (reproduces the paper's 100-second RTT tail).  Pending
            # delayed-ACK state is cleared so no later timer re-sends the
            # final ACK on the monitored path.
            self._straggler_done = True
            self._pending_ack_segments = 0
            self._delack_gen += 1
            segment = self._make_segment(
                seq=self._abs_seq(self._snd_nxt),
                ack=self._current_ack_abs(),
                flags=tcpf.FLAG_ACK,
            )
            self._emit(segment, via_bypass=True)
            self._loop.schedule(
                self._straggler_keepalive_ns, self._send_keepalive_ack
            )
            return
        flags = tcpf.FLAG_ACK
        self.stats.acks_sent += 1
        if dup:
            self.stats.dup_acks_sent += 1
        self._pending_ack_segments = 0
        self._delack_gen += 1
        self._emit(
            self._make_segment(
                seq=self._abs_seq(self._snd_nxt),
                ack=self._current_ack_abs(),
                flags=flags,
            )
        )

    def _send_keepalive_ack(self) -> None:
        self.stats.keepalive_acks_sent += 1
        self._send_pure_ack(keepalive=True)

    def _flush_ack(self) -> None:
        self._send_pure_ack()

    def _arm_delayed_ack(self) -> None:
        self._delack_gen += 1
        gen = self._delack_gen
        self._loop.schedule(self.params.delayed_ack_ns, self._delayed_ack_fire, gen)

    def _delayed_ack_fire(self, gen: int) -> None:
        if gen != self._delack_gen or self._pending_ack_segments == 0:
            return
        self.stats.delayed_acks_fired += 1
        self._flush_ack()

    # -- ACK receive / sender logic -----------------------------------------------------------

    def _total_send_len(self) -> int:
        return self._app_bytes + (1 if self._fin_queued else 0)

    def _handle_ack(self, ack_abs: int, *, pure: bool = True) -> None:
        rel = self._rel_of_ack(ack_abs)
        if rel > self._total_send_len():
            return  # not an ACK for anything we sent (e.g. weird overlap)
        if rel > self._snd_una:
            now = self._loop.now_ns
            acked = rel - self._snd_una
            self._snd_una = rel
            self._dup_acks = 0
            rtt_ns: Optional[int] = None
            if self._rtt_probe is not None and rel >= self._rtt_probe[0]:
                # The probe segment (never retransmitted — Karn) is now
                # cumulatively acknowledged: one valid RTT measurement.
                rtt_ns = now - self._rtt_probe[1]
                self._rtt_probe = None
                self.stats.rtt_samples += 1
                if self._rto_est is not None:
                    self._rto_ns = self._rto_est.on_measurement(rtt_ns)
            if self._rto_est is None:
                self._rto_ns = self.params.rto_ns  # backoff resets on progress
            self._cc.on_ack(
                acked_bytes=acked,
                rtt_ns=rtt_ns,
                now_ns=now,
                in_flight_bytes=self._snd_nxt - self._snd_una,
            )
            if rel < self._recover_point:
                # Partial ACK (RFC 6582): everything up to the recovery
                # point was sent before the loss event, so a gap at
                # snd_una means that segment is lost, not in flight —
                # retransmit it now.
                self.stats.retransmissions += 1
                self.stats.partial_ack_retransmits += 1
                self._retransmit_head()
            if self._snd_una >= self._snd_nxt:
                self._bump_timer()  # everything acked: stop RTO
            else:
                self._arm_rto()
            self._maybe_signal_send_complete()
            self._pump()
            return
        if pure and rel == self._snd_una and self._snd_nxt > self._snd_una:
            self._dup_acks += 1
            self._cc.on_dupack(self._loop.now_ns)
            if self._dup_acks == self.params.dupack_threshold:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self.stats.retransmissions += 1
        self._rtt_probe = None  # Karn: retransmission voids the probe
        self._recover_point = self._snd_nxt
        self._cc.on_fast_retransmit(self._loop.now_ns)
        self._retransmit_head()
        self._arm_rto()

    def _retransmit_head(self) -> None:
        start = self._snd_una
        end = min(start + self.params.mss, self._total_send_len())
        if end <= start:
            return
        self._emit_range(start, end, retransmit=True)

    def _rto_fire(self, gen: int) -> None:
        if gen != self._timer_gen:
            return
        if self._snd_una >= self._snd_nxt:
            return
        self.stats.timeouts += 1
        self.stats.retransmissions += 1
        self._rtt_probe = None  # Karn: retransmission voids the probe
        self._recover_point = self._snd_nxt
        self._cc.on_retransmit_timeout(self._loop.now_ns)
        if self._rto_est is not None:
            self._rto_ns = self._rto_est.on_backoff()
        else:
            self._rto_ns = min(self._rto_ns * 2, self.params.rto_max_ns)
        self._retransmit_head()
        self._arm_rto()

    def _arm_rto(self) -> None:
        gen = self._bump_timer()
        self._loop.schedule(self._rto_ns, self._rto_fire, gen)

    def _bump_timer(self) -> int:
        self._timer_gen += 1
        return self._timer_gen

    # -- transmission ---------------------------------------------------------------------------

    def _pump(self) -> None:
        """Send as much new data as the congestion window allows."""
        if self.state not in ("ESTABLISHED", "CLOSING"):
            return
        limit = self._snd_una + self._cc.cwnd_segments * self.params.mss
        total = self._total_send_len()
        send_at = max(self._loop.now_ns, self._next_send_ns)
        pacing_gap = self._cc.pacing_gap_ns(self.params.mss)
        gap = max(self.params.segment_gap_ns, pacing_gap or 0)
        burst = 0
        while self._snd_nxt < total and self._snd_nxt < limit:
            start = self._snd_nxt
            end = min(start + self.params.mss, total)
            self._snd_nxt = end
            if send_at <= self._loop.now_ns:
                self._emit_range(start, end)
            else:
                self._loop.schedule_at(send_at, self._emit_range, start, end)
            send_at += gap
            burst += 1
        if burst:
            self._next_send_ns = send_at
            self._arm_rto()

    def _emit_range(self, start: int, end: int, retransmit: bool = False) -> None:
        """Send bytes [start, end); the last unit may be the FIN."""
        total = self._total_send_len()
        has_fin = self._fin_queued and end >= total
        payload = (end - start) - (1 if has_fin else 0)
        flags = tcpf.FLAG_ACK
        if has_fin:
            flags |= tcpf.FLAG_FIN
            self._fin_sent = True
            self.state = "CLOSING"
        if payload > 0 and end >= self._app_bytes:
            flags |= tcpf.FLAG_PSH
        if payload == 0 and not has_fin:
            return
        now = self._loop.now_ns
        if retransmit:
            self._rtt_probe = None  # Karn: never time a retransmitted range
        elif payload > 0 and self._rtt_probe is None:
            self._rtt_probe = (end, now)
        self._cc.on_send(payload, now)
        self.stats.data_segments_sent += 1
        # Data segments always carry the current cumulative ACK, so any
        # pending delayed-ACK obligation is satisfied by piggybacking.
        self._pending_ack_segments = 0
        self._delack_gen += 1
        self._emit(
            self._make_segment(
                seq=self._abs_seq(start),
                ack=self._current_ack_abs(),
                flags=flags,
                payload_len=payload,
            )
        )

    def _maybe_signal_send_complete(self) -> None:
        if self._send_done_signalled:
            return
        if self._app_bytes == 0:
            return
        if self._snd_una >= self._app_bytes:
            self._send_done_signalled = True
            if self._on_send_complete is not None:
                self._on_send_complete()
