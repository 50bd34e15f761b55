"""Conservation laws over Dart's counters.

Every Packet Tracker record created by the pipeline must end in exactly
one terminal state: still resident in the table, matched by an ACK
(a sample, or a negative-RTT drop), self-destructed (cycle, stale,
budget, analytics purge, shadow discard), or dropped as a duplicate
key.  ``DartStats`` alone holds every one of those counts.  If the
books don't balance, some code path is silently losing or
double-counting records — this test is the canary for the whole
contention machinery.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Dart, DartConfig, MinFilterAnalytics
from repro.net import tcp as tcpf
from repro.net.columnar import HAVE_NUMPY, records_to_columns
from repro.net.framing import encode_records
from repro.net.packet import PacketRecord
from repro.traces import CampusTraceConfig, generate_campus_trace

MS = 1_000_000


def record_balance(dart: Dart) -> dict:
    stats = dart.stats
    _, resident = dart.occupancy()
    terminal = (
        resident
        + stats.samples
        + stats.negative_rtt_drops
        + stats.duplicate_inserts
        + stats.cycle_self_destructs
        + stats.stale_self_destructs
        + stats.budget_drops
        + stats.analytics_purges
        + stats.shadow_discards
    )
    return {
        "created": stats.tracked_inserts,
        "terminal": terminal,
        "resident": resident,
    }


def check_balance(dart: Dart) -> None:
    balance = record_balance(dart)
    assert balance["created"] == balance["terminal"], balance


def _stream(events):
    t = 0
    out = []
    for flow_idx, kind, index in events:
        t += 500_000
        client = 0x0A000001 + flow_idx
        seq = 1_000 + index * 100
        if kind == "data":
            out.append(PacketRecord(
                timestamp_ns=t, src_ip=client, dst_ip=0x10000001,
                src_port=40000, dst_port=443, seq=seq, ack=1,
                flags=tcpf.FLAG_ACK, payload_len=100,
            ))
        else:
            out.append(PacketRecord(
                timestamp_ns=t, src_ip=0x10000001, dst_ip=client,
                src_port=443, dst_port=40000, seq=1, ack=seq + 100,
                flags=tcpf.FLAG_ACK, payload_len=0,
            ))
    return out


EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["data", "ack"]),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=150,
)


class TestConservation:
    @given(EVENTS)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_fuzz_single_stage(self, events):
        dart = Dart(DartConfig(rt_slots=16, pt_slots=4,
                               max_recirculations=2))
        for record in _stream(events):
            dart.process(record)
        check_balance(dart)

    @given(EVENTS)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_fuzz_multi_stage(self, events):
        dart = Dart(DartConfig(rt_slots=16, pt_slots=8, pt_stages=4,
                               max_recirculations=5))
        for record in _stream(events):
            dart.process(record)
        check_balance(dart)

    @given(EVENTS)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_fuzz_with_shadow_rt(self, events):
        dart = Dart(DartConfig(rt_slots=16, pt_slots=4,
                               max_recirculations=2, shadow_rt=True,
                               shadow_rt_lag_packets=3))
        for record in _stream(events):
            dart.process(record)
        check_balance(dart)

    @given(EVENTS)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_fuzz_with_analytics_purge(self, events):
        dart = Dart(
            DartConfig(rt_slots=16, pt_slots=4, max_recirculations=3,
                       analytics_purge=True),
            analytics=MinFilterAnalytics(window_samples=4),
        )
        for record in _stream(events):
            dart.process(record)
        check_balance(dart)

    @pytest.mark.parametrize("config", [
        DartConfig(rt_slots=1 << 16, pt_slots=1 << 8),
        DartConfig(rt_slots=1 << 16, pt_slots=1 << 8, pt_stages=4,
                   max_recirculations=4),
        DartConfig(rt_slots=1 << 16, pt_slots=1 << 6,
                   max_recirculations=1, shadow_rt=True),
        DartConfig(),  # ideal
    ])
    def test_campus_trace_books_balance(self, config):
        trace = generate_campus_trace(
            CampusTraceConfig(connections=150, seed=8)
        )
        dart = Dart(config)
        for record in trace.records:
            dart.process(record)
        check_balance(dart)

    def test_delayed_recirculation_balances_after_drain(self):
        dart = Dart(DartConfig(rt_slots=1 << 10, pt_slots=1,
                               max_recirculations=1,
                               recirculation_delay_packets=3))
        events = [(i % 3, "data", i) for i in range(30)]
        stream = _stream(events)
        for record in stream:
            dart.process(record)
        # Records still waiting in the recirculation queue are neither
        # resident nor destroyed; account for them explicitly.
        queued = len(dart._recirc_queue)
        balance = record_balance(dart)
        assert balance["created"] == balance["terminal"] + queued


CHUNK = 500


def _in_chunks(feed):
    """A feed of the whole trace in CHUNK-record calls to ``feed``."""
    def run(dart, records):
        for start in range(0, len(records), CHUNK):
            feed(dart, records[start:start + CHUNK])
        return dart
    return run


def _through_pickle(dart, records):
    half = len(records) // 2
    dart.process_batch(records[:half])
    dart = pickle.loads(pickle.dumps(dart))
    dart.process_batch(records[half:])
    return dart


ENTRY_POINTS = [
    pytest.param(_in_chunks(lambda dart, chunk: [dart.process(r)
                                                 for r in chunk]),
                 id="process"),
    pytest.param(_in_chunks(Dart.process_batch), id="process_batch"),
    pytest.param(_in_chunks(lambda dart, chunk: dart.process_framed(
        encode_records(chunk))), id="process_framed"),
    pytest.param(_in_chunks(lambda dart, chunk: dart.process_columns(
        records_to_columns(chunk))), id="process_columns",
        marks=pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="process_columns requires numpy")),
    pytest.param(_through_pickle, id="pickled_mid_trace"),
]


@pytest.mark.parametrize("feed", ENTRY_POINTS)
def test_books_balance_on_every_entry_point(feed):
    records = generate_campus_trace(
        CampusTraceConfig(connections=150, seed=8)).records
    dart = feed(Dart(DartConfig(rt_slots=1 << 12, pt_slots=1 << 6,
                                pt_stages=2, max_recirculations=2)), records)
    assert dart.stats.packets_processed == len(records)
    assert dart.stats.samples and dart.stats.evictions
    check_balance(dart)
