"""FleetCollector: churn-tolerant merging, loud loss accounting.

The merge core is exercised socket-free (frames built and decoded
in-memory), then the socket and HTTP front ends get real loopback
round-trips.
"""

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.baselines.tcptrace import TcpTraceStats
from repro.core.analytics import DstPrefixKey, WindowMinimum
from repro.core.flow import intern_flow
from repro.core.hist import DistributionAnalytics, HistogramSpec
from repro.core.pipeline import DartStats
from repro.core.samples import RttSample
from repro.fleet import (
    CollectorClient,
    FleetCollector,
    FleetHttpServer,
    FleetServer,
    encode_frame,
    key_to_wire,
    read_frame,
    stats_to_wire,
    window_to_wire,
)
from repro.obs import MetricsRegistry, parse_prometheus


def frame(kind, agent="a1", epoch=1, seq=1, payload=None):
    return read_frame(io.BytesIO(
        encode_frame(kind, agent=agent, epoch=epoch, seq=seq,
                     payload=payload)
    ))


def delta_payload(*, samples=0, flows=(), windows=(), windows_closed=0,
                  final=False):
    stats = DartStats()
    stats.samples = samples
    return {
        "monitor": "dart",
        "records": samples,
        "stats": stats_to_wire(stats),
        "flows": list(flows),
        "windows": list(windows),
        "windows_closed": windows_closed,
        "telemetry": None,
        "final": final,
    }


def window(index, *, min_rtt_ns=1000, closed_at_ns=None):
    return window_to_wire(WindowMinimum(
        key=intern_flow(1, 2, 3, 4, False),
        window_index=index, min_rtt_ns=min_rtt_ns, sample_count=8,
        closed_at_ns=closed_at_ns if closed_at_ns is not None else index,
    ))


class TestStalenessGuard:
    def test_repeated_stamp_dropped(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1,
                                     payload=delta_payload(samples=5)))
        collector.handle_frame(frame("delta", seq=1,
                                     payload=delta_payload(samples=99)))
        summary = collector.to_summary()
        assert summary["stale_deltas_dropped"] == 1
        assert collector.merged_stats()["dart"].samples == 5

    def test_reordered_old_seq_dropped(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=5,
                                     payload=delta_payload(samples=50)))
        collector.handle_frame(frame("delta", seq=3,
                                     payload=delta_payload(samples=30)))
        assert collector.merged_stats()["dart"].samples == 50

    def test_new_epoch_supersedes_regardless_of_seq(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", epoch=1, seq=100,
                                     payload=delta_payload(samples=80)))
        # Restarted process: fresh (larger) epoch, seq restarts at 1.
        collector.handle_frame(frame("delta", epoch=2, seq=1,
                                     payload=delta_payload(samples=20)))
        assert collector.merged_stats()["dart"].samples == 20

    def test_cumulative_replace_within_epoch(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1,
                                     payload=delta_payload(samples=10)))
        collector.handle_frame(frame("delta", seq=2,
                                     payload=delta_payload(samples=25)))
        assert collector.merged_stats()["dart"].samples == 25


class TestWindowAccounting:
    def test_content_dedup_across_resends(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1, payload=delta_payload(
            windows=[window(0), window(1)], windows_closed=2)))
        # Resume re-sends the same windows (plus one new): exactly-once.
        collector.handle_frame(frame("delta", epoch=2, seq=1,
                                     payload=delta_payload(
            windows=[window(0), window(1), window(2)], windows_closed=3)))
        assert len(collector.merged_windows()) == 3
        assert collector.to_summary()["windows_lost"] == 0

    def test_lost_windows_are_loud(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1, payload=delta_payload(
            windows=[window(0)], windows_closed=4)))
        summary = collector.to_summary()
        assert summary["windows_lost"] == 3
        assert summary["agents"]["a1"]["windows_lost"] == 3

    def test_same_agent_windows_differ_by_content(self):
        # A pathological recompute (same index, different minimum) must
        # surface as two windows, not silently collapse.
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1, payload=delta_payload(
            windows=[window(0, min_rtt_ns=100)], windows_closed=1)))
        collector.handle_frame(frame("delta", seq=2, payload=delta_payload(
            windows=[window(0, min_rtt_ns=200)], windows_closed=1)))
        assert len(collector.merged_windows()) == 2

    def test_merged_windows_sorted_by_close_time(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", agent="b", seq=1,
                                     payload=delta_payload(
            windows=[window(0, closed_at_ns=500)], windows_closed=1)))
        collector.handle_frame(frame("delta", agent="a", seq=1,
                                     payload=delta_payload(
            windows=[window(1, closed_at_ns=100)], windows_closed=1)))
        closes = [w.closed_at_ns for w in collector.merged_windows()]
        assert closes == sorted(closes)


class TestLiveness:
    def test_agent_up_tracks_frames_and_timeout(self):
        clock = [0.0]
        collector = FleetCollector(agent_timeout_s=5.0,
                                   clock=lambda: clock[0])
        collector.handle_frame(frame("hello"))
        (state,) = collector.agents()
        assert collector.agent_up(state)
        clock[0] = 6.0
        assert not collector.agent_up(state)

    def test_bye_marks_disconnected(self):
        collector = FleetCollector()
        collector.handle_frame(frame("hello", seq=1))
        collector.handle_frame(frame("bye", seq=2))
        (state,) = collector.agents()
        assert not state.connected

    def test_final_delta_finalizes(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1,
                                     payload=delta_payload(final=True)))
        assert collector.finalized_agents() == 1

    def test_resumed_epoch_clears_finalized(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", epoch=1, seq=1,
                                     payload=delta_payload(final=True)))
        collector.handle_frame(frame("hello", epoch=2, seq=1))
        assert collector.finalized_agents() == 0

    def test_heartbeats_counted(self):
        collector = FleetCollector()
        collector.handle_frame(frame("heartbeat", seq=1))
        collector.handle_frame(frame("heartbeat", seq=2))
        (state,) = collector.agents()
        assert state.heartbeats == 2


class TestExposition:
    def test_fleet_metrics_parse_back(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1, payload=delta_payload(
            samples=5, flows=[[key_to_wire(intern_flow(1, 2, 3, 4)), 5]],
            windows=[window(0)], windows_closed=2)))
        parsed = parse_prometheus(collector.prometheus_exposition())
        assert parsed.value("fleet_agents_known") == 1
        assert parsed.value("fleet_frames_total") == 1
        assert parsed.value("fleet_windows_lost_total", ("a1",)) == 1
        assert parsed.value("fleet_samples_exactly_once") == 5

    def test_merged_agent_telemetry_included(self):
        registry = MetricsRegistry()
        registry.counter("dart_stream_records_total").inc((), 42)
        collector = FleetCollector()
        payload = delta_payload()
        payload["telemetry"] = registry.to_wire(1)
        collector.handle_frame(frame("delta", seq=1, payload=payload))
        parsed = parse_prometheus(collector.prometheus_exposition())
        assert parsed.value("dart_stream_records_total") == 42

    def test_agents_telemetry_sums_and_stays_as_decoded(self):
        collector = FleetCollector()
        for agent, count in (("a1", 40), ("a2", 2)):
            registry = MetricsRegistry()
            registry.counter("dart_stream_records_total").inc((), count)
            payload = delta_payload()
            payload["telemetry"] = registry.to_wire(1)
            collector.handle_frame(frame("delta", agent=agent, seq=1,
                                         payload=payload))
        decoded = [a.telemetry.to_wire() for a in collector.agents()]
        assert collector.merged_telemetry().value(
            "dart_stream_records_total") == 42
        assert collector.merged_telemetry().value(
            "dart_stream_records_total") == 42
        assert [a.telemetry.to_wire() for a in collector.agents()] == decoded

    def test_histogram_shape_mismatch_refused(self):
        # Two agents exporting one histogram under different bucket
        # layouts (other bounds, or another bin count) cannot be summed.
        for other in ((10.0, 20.0, 40.0), (10.0, 20.0)):
            collector = FleetCollector()
            for agent, buckets in (("a1", (10.0, 20.0, 30.0)),
                                   ("a2", other)):
                registry = MetricsRegistry()
                registry.histogram("dart_rtt_seconds", buckets=buckets)\
                    .observe(25.0)
                payload = delta_payload()
                payload["telemetry"] = registry.to_wire(1)
                collector.handle_frame(frame("delta", agent=agent, seq=1,
                                             payload=payload))
            with pytest.raises(ValueError, match="bucket bounds differ"):
                collector.merged_telemetry()

    def test_detector_runs_over_merged_windows(self):
        collector = FleetCollector()
        # Baseline from 3 calm windows, then a sustained 3x rise:
        # LEARNING -> NORMAL -> SUSPECTED -> CONFIRMED.
        calm = [window(i, min_rtt_ns=1000, closed_at_ns=i * 10)
                for i in range(3)]
        elevated = [window(i, min_rtt_ns=3000, closed_at_ns=100 + i * 10)
                    for i in range(3, 5)]
        collector.handle_frame(frame("delta", seq=1, payload=delta_payload(
            windows=calm + elevated, windows_closed=5)))
        detector = collector.to_summary()["detector"]
        assert detector["state"] == "confirmed"
        assert detector["confirmed_at_ns"] is not None


def _with(**parts):
    payload = delta_payload(samples=7)
    payload.update(parts)
    return payload


def _stats_fields(**fields):
    return {"type": "DartStats", "fields": fields}


def _telemetry_value(value):
    registry = MetricsRegistry()
    registry.counter("dart_stream_records_total").inc((), 1)
    wire = registry.to_wire(1)
    wire["metrics"][0]["series"][0]["value"] = value
    return wire


#: Delta payloads no real agent sends: each must be refused whole.
MALFORMED = {
    "string_counter": _with(stats=_stats_fields(samples="x")),
    "bad_flow_after_good_stats": _with(flows=[[{"t": "flow", "src": "zz"},
                                               1]]),
    "string_records": _with(records="abc"),
    "unknown_verdict": _with(stats=_stats_fields(
        seq_verdicts={"no-such-verdict": 1})),
    "telemetry_without_schema": _with(telemetry={"metrics": []}),
    "telemetry_string_value": _with(telemetry=_telemetry_value("boom")),
    "telemetry_bool_value": _with(telemetry=_telemetry_value(True)),
    "flows_not_pairs": _with(flows=[3]),
    "stats_not_an_object": _with(stats=[1, 2]),
}


class TestDeltaAppliesWhole:
    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_delta_changes_nothing(self, payload):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1,
                                     payload=delta_payload(samples=3)))
        collector.handle_frame(frame("delta", seq=2, payload=payload))
        (state,) = collector.agents()
        assert (state.epoch, state.seq, state.deltas) == (1, 1, 1)
        assert collector.merged_stats()["dart"].samples == 3
        summary = collector.to_summary()
        assert summary["corrupt_frames"] == 1
        assert summary["frames_total"] == 1
        assert summary["flows"]["unique"] == 0
        parsed = parse_prometheus(collector.prometheus_exposition())
        assert parsed.value("fleet_corrupt_frames_total") == 1
        # The refused frame did not advance the stamp: seq 2 still fits.
        collector.handle_frame(frame("delta", seq=2,
                                     payload=delta_payload(samples=5)))
        assert collector.merged_stats()["dart"].samples == 5

    def test_reader_survives_a_malformed_delta(self):
        collector = FleetCollector()
        server = FleetServer(collector, host="127.0.0.1", port=0)
        server.start()
        try:
            host, port = server.address
            client = CollectorClient(f"{host}:{port}")
            for seq, payload in enumerate(
                    (MALFORMED["string_records"], delta_payload(samples=4)),
                    start=1):
                assert client.send(encode_frame(
                    "delta", agent="sock", epoch=1, seq=seq,
                    payload=payload))
            client.close()
            for _ in range(100):
                if collector.to_summary()["frames_total"] >= 1:
                    break
                time.sleep(0.02)
            assert collector.to_summary()["corrupt_frames"] == 1
            assert collector.merged_stats()["dart"].samples == 4
        finally:
            server.close()


class TestFirstConfigurationHolds:
    """A monitor's stats type and distribution configuration are fixed by
    the first delta the collector holds; a delta that differs is refused
    whole and counted, and every read keeps working."""

    @staticmethod
    def _stage(bins):
        stage = DistributionAnalytics(HistogramSpec.log_bins(bins),
                                      key_fn=DstPrefixKey(24))
        stage.add(RttSample(flow=intern_flow(1, 0x10000005, 3, 4),
                            rtt_ns=5_000_000, timestamp_ns=1, eack=0))
        return stage

    def test_misconfigured_agent_is_refused(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", agent="a1", payload=_with(
            distribution=self._stage(16).state())))
        collector.handle_frame(frame("delta", agent="a2", payload=_with(
            distribution=self._stage(32).state())))
        wrong_type = _with(stats=stats_to_wire(TcpTraceStats(samples=2)))
        collector.handle_frame(frame("delta", agent="a3", payload=wrong_type))
        assert collector.merged_distribution()["dart"] == self._stage(16)
        assert collector.merged_stats()["dart"].samples == 7
        summary = collector.to_summary()
        assert summary["mismatched_deltas"] == 2
        assert summary["distribution"]["dart"]["samples"] == 1
        assert sorted(summary["agents"]) == ["a1"]
        parsed = parse_prometheus(collector.prometheus_exposition())
        assert parsed.value("fleet_mismatched_deltas_total") == 2

    def test_first_configuration_outlives_its_agent(self):
        # The same agent restarting with other flags is refused too: the
        # first configuration holds until the collector restarts.
        collector = FleetCollector()
        collector.handle_frame(frame("delta", epoch=1, payload=_with(
            distribution=self._stage(16).state())))
        collector.handle_frame(frame("delta", epoch=2, payload=_with(
            distribution=self._stage(32).state())))
        (state,) = collector.agents()
        assert state.epoch == 1
        assert collector.merged_distribution()["dart"] == self._stage(16)


class TestSocketsEndToEnd:
    def test_client_to_server_round_trip(self):
        collector = FleetCollector()
        server = FleetServer(collector, host="127.0.0.1", port=0)
        server.start()
        try:
            host, port = server.address
            client = CollectorClient(f"{host}:{port}")
            assert client.send(encode_frame(
                "delta", agent="sock", epoch=1, seq=1,
                payload=delta_payload(samples=3)))
            client.close()
            for _ in range(100):
                if collector.to_summary()["frames_total"] >= 1:
                    break
                time.sleep(0.02)
            assert collector.merged_stats()["dart"].samples == 3
        finally:
            server.close()

    def test_unix_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "fleet.sock")
        collector = FleetCollector()
        server = FleetServer(collector, unix_path=path)
        server.start()
        try:
            client = CollectorClient(f"unix:{path}")
            assert client.send(encode_frame("hello", agent="u", epoch=1,
                                            seq=1))
            client.close()
            for _ in range(100):
                if collector.agents():
                    break
                time.sleep(0.02)
            assert [a.agent_id for a in collector.agents()] == ["u"]
        finally:
            server.close()

    def test_disconnect_without_bye_marks_down(self):
        collector = FleetCollector()
        server = FleetServer(collector, host="127.0.0.1", port=0)
        server.start()
        try:
            host, port = server.address
            client = CollectorClient(f"{host}:{port}")
            client.send(encode_frame("hello", agent="churn", epoch=1,
                                     seq=1))
            client.close()  # vanish: no bye frame
            for _ in range(100):
                agents = collector.agents()
                if agents and not agents[0].connected:
                    break
                time.sleep(0.02)
            (state,) = collector.agents()
            assert not state.connected
        finally:
            server.close()


class TestHttpExposition:
    def test_routes(self):
        collector = FleetCollector()
        collector.handle_frame(frame("delta", seq=1,
                                     payload=delta_payload(samples=2)))
        http = FleetHttpServer(collector, host="127.0.0.1", port=0)
        http.start()
        try:
            host, port = http.address
            base = f"http://{host}:{port}"

            def get(route):
                with urllib.request.urlopen(base + route, timeout=5) as r:
                    return r.status, r.read().decode()

            status, metrics = get("/metrics")
            assert status == 200 and "fleet_agents_known" in metrics
            status, agents = get("/agents")
            assert status == 200 and "a1" in json.loads(agents)
            status, summary = get("/summary")
            assert json.loads(summary)["schema"] == "dart-fleet-summary/1"
            status, health = get("/healthz")
            assert status == 200 and health == "ok\n"
        finally:
            http.close()

    def test_unknown_route_404(self):
        collector = FleetCollector()
        http = FleetHttpServer(collector, host="127.0.0.1", port=0)
        http.start()
        try:
            host, port = http.address
            try:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5)
                assert False, "expected 404"
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            http.close()
