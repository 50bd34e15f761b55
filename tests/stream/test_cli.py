"""dart-stream CLI: argument validation, one-shot runs, inspection."""

import json

import pytest

from repro.cli.stream import main
from repro.net.columnar import HAVE_NUMPY
from repro.net.pcap import read_packets
from repro.stream import read_header


class TestOneShot:
    def test_exhausts_and_reports(self, campus_pcap, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([str(campus_pcap), "--csv", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "source exhausted" in stdout
        records = len(list(read_packets(campus_pcap)))
        assert f"after {records} records" in stdout
        assert out.stat().st_size > 0

    def test_paced_replay_smoke(self, campus_pcap, tmp_path, capsys):
        # At 10^9x the whole trace paces out in microseconds of wall
        # time; this exercises the pacing code path, not the clock.
        out = tmp_path / "out.csv"
        assert main([str(campus_pcap), "--pace", "1e9",
                     "--csv", str(out)]) == 0
        assert "source exhausted" in capsys.readouterr().out

    def test_baseline_monitor_with_windows(self, campus_pcap, tmp_path,
                                           capsys):
        win = tmp_path / "win.jsonl"
        assert main([str(campus_pcap), "--monitor", "tcptrace",
                     "--window-samples", "8", "--windows", str(win)]) == 0
        lines = win.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"key", "min_rtt_ns", "samples"} <= set(first)


class TestDecoderSelection:
    """No flag picks the decoder: numpy importable means columnar, for
    a tailed or paced capture exactly as for a one-shot file."""

    @pytest.mark.parametrize("numpy_visible", [
        pytest.param(True, marks=pytest.mark.skipif(
            not HAVE_NUMPY, reason="needs numpy")),
        False,
    ])
    @pytest.mark.parametrize("mode", [
        [],
        ["--follow", "--poll-interval", "0.01", "--idle-timeout", "0.03"],
        ["--pace", "1e9"],
    ], ids=["one-shot", "follow", "pace"])
    def test_same_csv_as_replay_through_the_observed_decoder(
        self, campus_pcap, tmp_path, capsys, monkeypatch, mode,
        numpy_visible
    ):
        from repro.cli.replay import main as replay_main
        from repro.core import Dart
        from repro.net import columnar

        monkeypatch.setattr(columnar, "HAVE_NUMPY", numpy_visible)
        columnar_batches = []
        process_columns = Dart.process_columns

        def spy(self, cols):
            columnar_batches.append(cols.n)
            return process_columns(self, cols)

        monkeypatch.setattr(Dart, "process_columns", spy)
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        assert replay_main([str(campus_pcap), "--csv", str(ref)]) == 0
        replayed = len(columnar_batches)
        assert main([str(campus_pcap), *mode, "--csv", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()
        assert bool(replayed) == numpy_visible
        assert (len(columnar_batches) > replayed) == numpy_visible

    @pytest.mark.parametrize("flag", ["--fastpath", "--no-fastpath"])
    @pytest.mark.parametrize("cli", ["replay", "stream", "bench", "agent"])
    def test_the_decoder_is_not_an_option(self, campus_pcap, cli, flag,
                                          capsys):
        import importlib

        cli_main = importlib.import_module(f"repro.cli.{cli}").main
        capture = [] if cli == "bench" else [str(campus_pcap)]
        with pytest.raises(SystemExit) as info:
            cli_main([*capture, flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestInspect:
    def test_prints_header_json(self, campus_pcap, tmp_path, capsys):
        ckpt = tmp_path / "state.ckpt"
        assert main([str(campus_pcap), "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["--inspect", str(ckpt)]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header == read_header(ckpt)
        assert header["schema"].startswith("dart-stream-checkpoint/")

    def test_inspect_garbage_fails_cleanly(self, tmp_path):
        bogus = tmp_path / "bogus"
        bogus.write_bytes(b"not a checkpoint")
        with pytest.raises(SystemExit, match="dart-stream"):
            main(["--inspect", str(bogus)])


class TestValidation:
    def test_requires_a_capture(self):
        with pytest.raises(SystemExit, match="capture file is required"):
            main([])

    def test_resume_requires_checkpoint(self, campus_pcap):
        with pytest.raises(SystemExit, match="--resume requires"):
            main([str(campus_pcap), "--resume"])

    def test_windows_requires_window_spec(self, campus_pcap, tmp_path):
        with pytest.raises(SystemExit, match="--windows requires"):
            main([str(campus_pcap),
                  "--windows", str(tmp_path / "w.jsonl")])

    def test_leg_requires_internal(self, campus_pcap):
        with pytest.raises(SystemExit, match="--leg requires --internal"):
            main([str(campus_pcap), "--leg", "internal"])

    def test_resume_refuses_finalized(self, campus_pcap, tmp_path):
        ckpt = tmp_path / "state.ckpt"
        assert main([str(campus_pcap), "--checkpoint", str(ckpt)]) == 0
        with pytest.raises(SystemExit, match="already finalized"):
            main([str(campus_pcap), "--checkpoint", str(ckpt),
                  "--resume"])

    def test_resume_with_wrong_monitor(self, campus_pcap, tmp_path):
        from repro.stream import write_checkpoint

        ckpt = tmp_path / "state.ckpt"
        write_checkpoint(ckpt, {"monitors": {"tcptrace": None},
                                "analytics": None},
                         {"finalized": False,
                          "source": {"path": str(campus_pcap),
                                     "format": "pcap", "offset": 24},
                          "sinks": [],
                          "runner": {"records": 0, "end_ns": None}})
        with pytest.raises(SystemExit,
                           match="resume with the monitor"):
            main([str(campus_pcap), "--checkpoint", str(ckpt),
                  "--resume"])


class StopAfterFirstChunk:
    """Stands in for GracefulShutdown: the run stops (un-finalized, with
    a resumable checkpoint) at its first chunk boundary."""

    triggered = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestResumeIgnoresConfiguration:
    """On --resume the monitor, analytics and output files come from the
    checkpoint; configuration flags given alongside are named once on
    stderr instead of being silently dropped."""

    @pytest.mark.parametrize("cli", ["stream", "agent"])
    def test_ignored_flags_are_named(self, cli, campus_pcap, tmp_path,
                                     capsys, monkeypatch):
        import importlib

        from repro.cli import stream as stream_cli

        cli_main = importlib.import_module(f"repro.cli.{cli}").main
        fleet = ([] if cli == "stream" else
                 ["--collector", f"unix:{tmp_path}/nobody-listens.sock"])
        ref, old, new = (tmp_path / name
                         for name in ("ref.csv", "old.csv", "new.csv"))
        ckpt = tmp_path / "state.ckpt"
        assert cli_main([str(campus_pcap), *fleet, "--csv", str(ref)]) == 0

        with monkeypatch.context() as patched:
            patched.setattr(stream_cli, "GracefulShutdown",
                            StopAfterFirstChunk)
            assert cli_main([str(campus_pcap), *fleet, "--csv", str(old),
                             "--chunk-size", "256",
                             "--checkpoint", str(ckpt)]) == 0
        assert "stopped by signal" in capsys.readouterr().out
        assert 0 < old.stat().st_size < ref.stat().st_size

        assert cli_main([str(campus_pcap), *fleet, "--checkpoint", str(ckpt),
                         "--resume", "--csv", str(new), "--pt-slots", "64",
                         "--internal", "10.0.0.0/8", "--window-samples", "4",
                         "--hist-bins", "8", "--chunk-size", "256"]) == 0
        captured = capsys.readouterr()
        notes = [line for line in captured.err.splitlines()
                 if "ignored" in line]
        assert len(notes) == 1
        assert notes[0].startswith(f"dart-{cli}: --resume ")
        assert notes[0].endswith(
            "ignored: --internal --pt-slots --window-samples --csv "
            "--hist-bins")
        # ... and they really were: the old file got the rest of the
        # run, under the old (unlimited) tables.
        assert not new.exists()
        assert old.read_bytes() == ref.read_bytes()

    def test_no_note_without_configuration_flags(self, campus_pcap,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        from repro.cli import stream as stream_cli

        ckpt = tmp_path / "state.ckpt"
        with monkeypatch.context() as patched:
            patched.setattr(stream_cli, "GracefulShutdown",
                            StopAfterFirstChunk)
            assert main([str(campus_pcap), "--csv", str(tmp_path / "o.csv"),
                         "--chunk-size", "256",
                         "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main([str(campus_pcap), "--checkpoint", str(ckpt), "--resume",
                     "--follow", "--idle-timeout", "0.05",
                     "--poll-interval", "0.01", "--max-records", "100000",
                     "--checkpoint-interval", "5"]) == 0
        assert capsys.readouterr().err == ""
