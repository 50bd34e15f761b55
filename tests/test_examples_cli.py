"""Smoke tests: every example script and CLI entry point runs clean."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def run_script(path, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_script(EXAMPLES / "quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "RTT sample: 23.0 ms" in result.stdout
        assert "samples collected : 3" in result.stdout

    def test_attack_detection(self):
        result = run_script(EXAMPLES / "attack_detection.py")
        assert result.returncode == 0, result.stderr
        assert "state=confirmed" in result.stdout
        assert "attack confirmed" in result.stdout

    def test_campus_monitoring(self):
        result = run_script(EXAMPLES / "campus_monitoring.py")
        assert result.returncode == 0, result.stderr
        assert "destination prefix" in result.stdout
        assert "wired" in result.stdout and "wireless" in result.stdout

    def test_pcap_roundtrip(self):
        result = run_script(EXAMPLES / "pcap_roundtrip.py")
        assert result.returncode == 0, result.stderr
        assert "Dart collected" in result.stdout

    def test_multi_vantage(self):
        result = run_script(EXAMPLES / "multi_vantage.py")
        assert result.returncode == 0, result.stderr
        assert "BETWEEN the two vantage points" in result.stdout

    def test_bufferbloat_detection(self):
        result = run_script(EXAMPLES / "bufferbloat_detection.py")
        assert result.returncode == 0, result.stderr
        assert "bufferbloat CONFIRMED" in result.stdout


@pytest.fixture(scope="module")
def small_pcap(tmp_path_factory):
    from repro.net.pcap import write_packets
    from repro.traces import CampusTraceConfig, generate_campus_trace

    trace = generate_campus_trace(CampusTraceConfig(connections=60, seed=2))
    path = tmp_path_factory.mktemp("pcap") / "small.pcap"
    write_packets(path, trace.records)
    return path


class TestReplayCli:
    def test_summary(self, small_pcap, capsys):
        from repro.cli.replay import main

        assert main([str(small_pcap), "--internal", "10.0.0.0/8",
                     "--leg", "external"]) == 0
        out = capsys.readouterr().out
        assert "RTT samples" in out
        assert "median RTT" in out

    def test_dump(self, small_pcap, capsys):
        from repro.cli.replay import main

        assert main([str(small_pcap), "--dump"]) == 0
        out = capsys.readouterr().out
        assert "rtt_ms=" in out

    def test_constrained_tables(self, small_pcap, capsys):
        from repro.cli.replay import main

        assert main([str(small_pcap), "--pt-slots", "64", "--rt-slots",
                     "1024", "--recirc", "2", "--handshake"]) == 0
        assert "dart-replay" in capsys.readouterr().out

    def test_leg_without_internal_rejected(self, small_pcap):
        from repro.cli.replay import main

        with pytest.raises(SystemExit):
            main([str(small_pcap), "--leg", "external"])

    def test_export_options(self, small_pcap, capsys, tmp_path):
        from repro.cli.replay import main
        from repro.export import read_reports

        csv_path = tmp_path / "out.csv"
        jsonl_path = tmp_path / "out.jsonl"
        reports_path = tmp_path / "out.rtt"
        assert main([str(small_pcap), "--csv", str(csv_path),
                     "--jsonl", str(jsonl_path),
                     "--reports", str(reports_path),
                     "--flows", "2"]) == 0
        out = capsys.readouterr().out
        assert "busiest 2 flows" in out
        header, first, *_ = csv_path.read_text().splitlines()
        assert header.startswith("timestamp_ns,")
        assert jsonl_path.read_text().strip()
        with open(reports_path, "rb") as stream:
            records = list(read_reports(stream))
        assert records and records[0].rtt_ns > 0


class TestDistributionCli:
    def test_replay_summary_rows(self, small_pcap, capsys):
        from repro.cli.replay import main

        assert main([str(small_pcap), "--hist-bins", "16",
                     "--quantiles", "50,95,99"]) == 0
        out = capsys.readouterr().out
        assert "histogram bins" in out
        assert "sketch p50 RTT (ms)" in out
        assert "sketch p99 RTT (ms)" in out
        assert "hist mean RTT (ms)" in out

    def test_replay_prom_exposition_carries_histogram(self, small_pcap,
                                                      tmp_path):
        # The acceptance shape: histogram + quantile series in a
        # well-formed Prometheus exposition a sidecar can scrape.
        from repro.cli.replay import main
        from repro.obs import parse_prometheus

        prom = tmp_path / "metrics.prom"
        assert main([str(small_pcap), "--hist-bins", "32",
                     "--quantiles", "50,95,99",
                     "--telemetry", "prom",
                     "--telemetry-out", str(prom)]) == 0
        text = prom.read_text()
        assert "dart_rtt_hist_bucket{" in text
        assert 'le="+Inf"' in text
        for q in (50, 95, 99):
            assert f"dart_rtt_p{q}{{" in text
        parse_prometheus(text)  # parses back: exposition is well-formed

    def test_hist_edges_and_prefix(self, small_pcap, capsys):
        from repro.cli.replay import main

        assert main([str(small_pcap), "--hist-edges", "1,10,100",
                     "--hist-prefix", "0"]) == 0
        out = capsys.readouterr().out
        # 3 explicit edges -> 4 bins including the +Inf overflow bin.
        assert "histogram bins" in out

    @pytest.mark.parametrize("flags", [
        ["--quantiles", "nope"],
        ["--quantiles", ""],
        ["--hist-bins", "0"],
        ["--hist-edges", "10,1"],
        ["--hist-bins", "8", "--hist-prefix", "40"],
        ["--hist-bins", "8", "--sketch-alpha", "2.0"],
    ])
    def test_malformed_flags_rejected(self, small_pcap, flags):
        from repro.cli.replay import main

        with pytest.raises(SystemExit):
            main([str(small_pcap), *flags])

    def test_bench_reports_distribution(self, capsys):
        from repro.cli.bench import main

        assert main(["--sweep", "stages", "--connections", "120",
                     "--pt-slots", "128", "--hist-bins", "8",
                     "--quantiles", "50,99"]) == 0
        assert "dart-bench sweep: stages" in capsys.readouterr().out


class TestDetectCli:
    @pytest.fixture(scope="class")
    def attack_pcap(self, tmp_path_factory):
        from repro.net.pcap import write_packets
        from repro.traces import generate_attack_trace

        trace = generate_attack_trace()
        path = tmp_path_factory.mktemp("detect") / "attack.pcap"
        write_packets(path, trace.records)
        return path

    def test_confirms_interception(self, attack_pcap, capsys):
        from repro.cli.detect import main

        code = main([str(attack_pcap), "--internal", "10.0.0.0/8"])
        out = capsys.readouterr().out
        assert code == 2  # confirmed events -> non-zero exit
        assert "interception:confirmed" in out
        assert "interception CONFIRMED on: 184.164.236.0/24" in out

    def test_clean_capture_exits_zero(self, capsys, tmp_path):
        from repro.cli.detect import main
        from repro.net.pcap import write_packets
        from repro.traces import AttackTraceConfig, generate_attack_trace

        # No attack: RTT stays flat for the whole run.
        config = AttackTraceConfig(pre_attack_rtt_ns=25_000_000,
                                   post_attack_rtt_ns=25_000_000,
                                   duration_ns=20_000_000_000)
        trace = generate_attack_trace(config)
        path = tmp_path / "clean.pcap"
        write_packets(path, trace.records)
        code = main([str(path), "--internal", "10.0.0.0/8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "confirmed" not in out.replace("CONFIRMED", "")


    @pytest.mark.parametrize("numpy_visible", [True, False])
    def test_decoder_follows_numpy_and_never_changes_the_events(
            self, attack_pcap, capsys, monkeypatch, numpy_visible):
        """dart-detect hands raw frames to the engine like every other
        capture reader, so it decodes columnar exactly when numpy is
        importable — and prints what the per-frame object path prints."""
        from repro.cli.detect import DetectionSink, main
        from repro.core import Dart
        from repro.core import LegFilter
        from repro.engine import MonitorEngine, MonitorOptions, create
        from repro.net import columnar
        from repro.net.inet import InternalNetwork, ipv4_to_int
        from repro.net.pcapng import read_any_capture

        if numpy_visible and not columnar.HAVE_NUMPY:
            pytest.skip("needs numpy")
        # The reference: decoded records through engine.run.
        monitor = create("dart", MonitorOptions(leg_filter=LegFilter(
            InternalNetwork([(ipv4_to_int("10.0.0.0"), 8)]),
            legs=("external",))))
        sink = DetectionSink(prefix_len=24, window=8, rise_factor=2.0)
        engine = MonitorEngine()
        engine.add_monitor(monitor, name="dart", sinks=[sink])
        engine.run(read_any_capture(attack_pcap))
        reference = capsys.readouterr().out
        assert "interception:confirmed" in reference

        monkeypatch.setattr(columnar, "HAVE_NUMPY", numpy_visible)
        columnar_batches = []
        process_columns = Dart.process_columns

        def spy(self, cols):
            columnar_batches.append(cols.n)
            return process_columns(self, cols)

        monkeypatch.setattr(Dart, "process_columns", spy)
        code = main([str(attack_pcap), "--internal", "10.0.0.0/8"])
        out = capsys.readouterr().out
        assert code == 2
        assert out == reference + (
            "interception CONFIRMED on: "
            f"{', '.join(sink.confirmed_prefixes())}\n")
        assert bool(columnar_batches) == numpy_visible


class TestBenchCli:
    def test_stage_sweep_runs(self, capsys):
        from repro.cli.bench import main

        assert main(["--sweep", "stages", "--connections", "120",
                     "--pt-slots", "128"]) == 0
        out = capsys.readouterr().out
        assert "dart-bench sweep: stages" in out
        assert "fraction (%)" in out
