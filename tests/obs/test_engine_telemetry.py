"""Engine telemetry: metrics content, and the telemetry-off fast path."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import MonitorEngine, MonitorOptions, create
from repro.obs import TelemetryEmitter
from repro.traces import CampusTraceConfig, generate_campus_trace


@pytest.fixture(scope="module")
def tcp_records():
    trace = generate_campus_trace(CampusTraceConfig(connections=40, seed=11))
    return trace.records


def run_with_telemetry(records, *, chunk_size=256, interval_s=1e9):
    """One engine pass with a JSON emitter; returns (monitor, emissions)."""
    buf = io.StringIO()
    emitter = TelemetryEmitter("json", interval_s=interval_s, stream=buf)
    monitor = create("dart", MonitorOptions())
    engine = MonitorEngine(chunk_size=chunk_size, telemetry=emitter)
    engine.add_monitor(monitor, name="dart")
    engine.run(records)
    emissions = [json.loads(line) for line in buf.getvalue().splitlines()]
    return monitor, emissions


def series_value(emission, name, labels):
    for metric in emission["metrics"]:
        if metric["name"] == name:
            for series in metric["series"]:
                if series["labels"] == list(labels):
                    return series.get("value", series)
    raise AssertionError(f"{name}{labels} not in emission")


class TestEngineTelemetry:
    def test_final_emission_reflects_full_trace(self, tcp_records):
        monitor, emissions = run_with_telemetry(tcp_records)
        # Huge interval: only the close() emission fires.
        assert len(emissions) == 1
        final = emissions[0]
        assert series_value(
            final, "dart_engine_records_total", ("dart",)
        ) == len(tcp_records)
        assert series_value(
            final, "dart_engine_samples_routed_total", ("dart",)
        ) == len(monitor.samples)
        # The Dart monitor's own cumulative stats were collected too,
        # under the (monitor, shard) labelset with shard="".
        names = {m["name"] for m in final["metrics"]}
        assert "dart_monitor_rt_occupancy" in names
        assert "dart_monitor_pt_occupancy" in names
        assert "dart_monitor_rt_collapses_total" in names
        # Each kernel decision is one series: the duplicate-insert count
        # is DartStats', and no RT series copies a verdict series.
        labels = ("dart", "")
        assert series_value(
            final, "dart_monitor_duplicate_inserts_total", labels
        ) == monitor.stats.duplicate_inserts
        assert series_value(
            final, "dart_monitor_rt_collapses_total", labels
        ) == sum(series_value(final, f"dart_monitor_rt_{cause}_total", labels)
                 for cause in ("retransmission_collapses",
                               "overlap_collapses",
                               "duplicate_ack_collapses"))
        assert not {"dart_monitor_rt_data_packets_total",
                    "dart_monitor_rt_holes_total",
                    "dart_monitor_rt_old_acks_ignored_total"} & names

    def test_chunk_histogram_counts_chunks(self, tcp_records):
        chunk_size = 64
        _, emissions = run_with_telemetry(tcp_records, chunk_size=chunk_size)
        expected_chunks = -(-len(tcp_records) // chunk_size)
        hist = [m for m in emissions[0]["metrics"]
                if m["name"] == "dart_engine_chunk_seconds"][0]
        series = [s for s in hist["series"] if s["labels"] == ["dart"]][0]
        assert series["count"] == expected_chunks

    def test_periodic_emission_mid_trace(self, tcp_records):
        # Tiny interval: every chunk boundary is past due, so the trace
        # pass emits per chunk plus the final close().
        chunk_size = 64
        _, emissions = run_with_telemetry(
            tcp_records, chunk_size=chunk_size, interval_s=1e-9
        )
        expected_chunks = -(-len(tcp_records) // chunk_size)
        assert len(emissions) == expected_chunks + 1
        records_seen = [
            series_value(e, "dart_engine_records_total", ("dart",))
            for e in emissions
        ]
        assert records_seen == sorted(records_seen)
        assert records_seen[-1] == len(tcp_records)


class TestTelemetryOffFastPath:
    def test_engine_keeps_no_telemetry_state(self):
        engine = MonitorEngine()
        assert engine._telemetry is None
        assert engine._chunk_seconds is None

    def test_obs_never_imported_when_off(self):
        # The whole obs package must stay out of the process when
        # telemetry is off: the engine hot loop may only pay a single
        # ``is None`` test per chunk.
        script = (
            "import sys\n"
            "from repro.engine import MonitorEngine, MonitorOptions, create\n"
            "from repro.traces import CampusTraceConfig, "
            "generate_campus_trace\n"
            "records = generate_campus_trace("
            "CampusTraceConfig(connections=10, seed=3)).records\n"
            "engine = MonitorEngine()\n"
            "engine.add_monitor(create('dart', MonitorOptions()), "
            "name='dart')\n"
            "engine.run(records)\n"
            "assert not any(m.startswith('repro.obs') for m in "
            "sys.modules), 'repro.obs imported on the telemetry-off path'\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
