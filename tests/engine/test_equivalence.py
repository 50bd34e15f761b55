"""Engine-vs-hand-rolled equivalence: same samples, same stats.

The MonitorEngine must be a pure refactor of the per-frontend trace
loops it replaced: for every registered monitor, driving the monitor
through ``MonitorEngine.run`` produces byte-identical samples and stats
to the obvious hand-rolled ``process()`` loop over the same records.
"""

from functools import partial

import pytest

from repro.cluster import ShardedDart
from repro.core import MinFilterAnalytics
from repro.engine import (
    MonitorEngine,
    MonitorOptions,
    available,
    create,
    get_spec,
)
from repro.quic import QuicPacketRecord
from repro.quic import generate_quic_trace
from repro.traces import CampusTraceConfig, generate_campus_trace

TCP_MONITORS = ("dart", "tcptrace", "strawman", "dapper")


@pytest.fixture(scope="module")
def tcp_records():
    trace = generate_campus_trace(
        CampusTraceConfig(connections=60, seed=5)
    )
    return trace.records


@pytest.fixture(scope="module")
def quic_records():
    return generate_quic_trace().records


def hand_rolled(name, records):
    """The loop every frontend used to write by hand."""
    monitor = create(name, MonitorOptions())
    end_ns = None
    for record in records:
        if record is None:
            continue
        monitor.process(record)
        end_ns = record.timestamp_ns
    monitor.finalize(end_ns)
    return monitor


def through_engine(name, records):
    monitor = create(name, MonitorOptions())
    engine = MonitorEngine()
    engine.add_monitor(monitor, name=name,
                       record_kind=get_spec(name).record_kind)
    engine.run(records)
    return monitor


class TestEquivalence:
    @pytest.mark.parametrize("name", TCP_MONITORS)
    def test_tcp_monitor_matches_hand_rolled_loop(self, name, tcp_records):
        manual = hand_rolled(name, tcp_records)
        engined = through_engine(name, tcp_records)
        assert list(engined.samples) == list(manual.samples)
        assert engined.stats == manual.stats

    def test_spinbit_matches_hand_rolled_loop(self, quic_records):
        manual = hand_rolled("spinbit", quic_records)
        engined = through_engine("spinbit", quic_records)
        assert list(engined.samples) == list(manual.samples)
        assert engined.stats == manual.stats

    def test_small_chunks_change_nothing(self, tcp_records):
        monitor = create("tcptrace", MonitorOptions())
        engine = MonitorEngine(chunk_size=7)  # worst-case chunking
        engine.add_monitor(monitor, name="tcptrace")
        engine.run(tcp_records)
        manual = hand_rolled("tcptrace", tcp_records)
        assert list(monitor.samples) == list(manual.samples)
        assert monitor.stats == manual.stats

    def test_none_records_are_skipped(self, tcp_records):
        gappy = []
        for i, record in enumerate(tcp_records):
            gappy.append(record)
            if i % 10 == 0:
                gappy.append(None)  # decoder gap (non-TCP frame)
        manual = hand_rolled("dart", tcp_records)
        engined = through_engine("dart", gappy)
        assert list(engined.samples) == list(manual.samples)
        assert engined.stats == manual.stats


class TestSharedPass:
    def test_monitors_in_one_pass_match_solo_runs(self, tcp_records):
        """Fan-out must not cross-contaminate monitors."""
        engine = MonitorEngine()
        monitors = {name: create(name, MonitorOptions())
                    for name in TCP_MONITORS}
        for name, monitor in monitors.items():
            engine.add_monitor(monitor, name=name)
        report = engine.run(tcp_records)
        assert report.records == len(tcp_records)
        for name, monitor in monitors.items():
            manual = hand_rolled(name, tcp_records)
            assert list(monitor.samples) == list(manual.samples), name
            assert monitor.stats == manual.stats, name

    def test_mixed_tcp_quic_pass_partitions_records(self, tcp_records,
                                                    quic_records):
        # Interleave the two record kinds; each monitor must see only
        # its own kind and produce its solo-run result.
        mixed = []
        tcp_iter, quic_iter = iter(tcp_records), iter(quic_records)
        while True:
            consumed = False
            for iterator, take in ((tcp_iter, 3), (quic_iter, 1)):
                for _ in range(take):
                    record = next(iterator, None)
                    if record is not None:
                        mixed.append(record)
                        consumed = True
            if not consumed:
                break
        dart = create("dart", MonitorOptions())
        spin = create("spinbit", MonitorOptions())
        engine = MonitorEngine()
        engine.add_monitor(dart, name="dart", record_kind="tcp")
        engine.add_monitor(spin, name="spinbit", record_kind="quic")
        engine.run(mixed)
        assert list(dart.samples) == list(
            hand_rolled("dart", tcp_records).samples
        )
        assert list(spin.samples) == list(
            hand_rolled("spinbit", quic_records).samples
        )


class TestGapCounting:
    """``None`` gaps are skipped by every monitor, so they are not
    records: the report must count what the monitors were fed."""

    def test_gaps_in_a_chunk_are_not_counted(self, tcp_records):
        chunk = list(tcp_records[:10])
        chunk[3:3] = [None]
        chunk.append(None)
        dart = create("dart", MonitorOptions())
        engine = MonitorEngine()
        run = engine.add_monitor(dart, name="dart")
        engine.ingest_chunk(chunk)
        report = engine.finish()
        assert dart.stats.packets_processed == 10
        assert report.records == 10
        assert run.records_seen == 10
        assert report.end_ns == tcp_records[9].timestamp_ns

    def test_an_all_gap_chunk_feeds_nothing(self, tcp_records):
        dart = create("dart", MonitorOptions())
        engine = MonitorEngine()
        run = engine.add_monitor(dart, name="dart")
        engine.ingest_chunk([None, None])
        report = engine.finish()
        assert (report.records, run.records_seen, report.end_ns) == (
            0, 0, None)

    def test_gaps_beside_a_quic_monitor(self, tcp_records, quic_records):
        chunk = [None, *tcp_records[:5], None, *quic_records[:3], None]
        dart = create("dart", MonitorOptions())
        spin = create("spinbit", MonitorOptions())
        engine = MonitorEngine()
        tcp_run = engine.add_monitor(dart, name="dart")
        quic_run = engine.add_monitor(spin, name="spinbit",
                                      record_kind="quic")
        report = engine.run(chunk)
        assert report.records == 8
        assert (tcp_run.records_seen, quic_run.records_seen) == (5, 3)
        assert dart.stats.packets_processed == 5
        assert spin.stats.packets_processed == 3


def _window_history(monitor):
    if isinstance(monitor, ShardedDart):
        return monitor.window_history
    return list(getattr(getattr(monitor, "analytics", None), "history", ()))


class TestEngineMatchesTheMonitorAlone:
    """The engine is the one trace driver: a monitor it feeds ends in
    the state ``process_batch`` + ``finalize()`` leave it in."""

    def test_every_registered_monitor_and_a_cluster(self, tcp_records,
                                                    quic_records):
        # One interleaved trace with decode gaps that ends on a TCP
        # record, so the engine's end-of-trace timestamp is the TCP
        # monitors' own.
        last_tcp = tcp_records[-1].timestamp_ns
        mixed = sorted(
            [*tcp_records,
             *(r for r in quic_records if r.timestamp_ns < last_tcp)],
            key=lambda r: r.timestamp_ns,
        )
        gappy = [None if i % 7 == 0 else r
                 for i, r in enumerate(r for record in mixed
                                       for r in (None, record))]
        options = MonitorOptions(
            analytics_factory=partial(MinFilterAnalytics, window_samples=4))

        def build():
            monitors = {name: create(name, options)
                        for name in available()}
            monitors["sharded"] = ShardedDart(
                shards=3, parallel="serial",
                analytics_factory=options.analytics_factory)
            return monitors

        def kind(name):
            return "tcp" if name == "sharded" else get_spec(name).record_kind

        assert set(available()) == {"dart", "tcptrace", "strawman",
                                    "dapper", "spinbit"}
        engine = MonitorEngine()
        engined = build()
        for name, monitor in engined.items():
            engine.add_monitor(monitor, name=name, record_kind=kind(name))
        engine.run(gappy)
        for name, alone in build().items():
            # Fed alone, a monitor skips the gaps itself.
            alone.process_batch(
                [r for r in gappy if r is None or (kind(name) == "quic")
                 == isinstance(r, QuicPacketRecord)])
            alone.finalize()
            monitor = engined[name]
            assert alone.stats.packets_processed > 0, name
            assert list(monitor.samples) == list(alone.samples), name
            assert monitor.stats == alone.stats, name
            assert _window_history(monitor) == _window_history(alone), name
        assert _window_history(engined["dart"])
        assert _window_history(engined["sharded"])


class TestRoutingBehaviour:
    def test_sinks_see_samples_in_emission_order(self, tcp_records):
        collected = []

        class Sink:
            def add(self, s):
                collected.append(s)

        monitor = create("tcptrace", MonitorOptions())
        engine = MonitorEngine()
        engine.add_monitor(monitor, name="tcptrace", sinks=[Sink()])
        engine.run(tcp_records)
        assert collected == list(monitor.samples)

    def test_report_counts(self, tcp_records):
        monitor = create("tcptrace", MonitorOptions())
        engine = MonitorEngine()
        run = engine.add_monitor(monitor, name="tcptrace")
        report = engine.run(tcp_records)
        assert report.records == len(tcp_records)
        assert run.records_seen == len(tcp_records)
        assert run.samples_routed == len(monitor.samples)
        assert report.end_ns == tcp_records[-1].timestamp_ns
        assert report.records_per_second > 0

    def test_run_without_monitors_raises(self):
        with pytest.raises(RuntimeError, match="no monitors"):
            MonitorEngine().run([])
