"""Checkpoint file format: round-trip, corruption, version fencing."""

import json
import os
import struct

import pytest

from repro.stream import (
    CheckpointCorrupt,
    CheckpointSchemaMismatch,
    read_checkpoint,
    read_header,
    write_checkpoint,
)
from repro.stream import checkpoint as checkpoint_module
from repro.stream.checkpoint import MAGIC


@pytest.fixture()
def checkpoint(tmp_path):
    path = tmp_path / "state.ckpt"
    payload = {"monitors": {"dart": [1, 2, 3]}, "analytics": None}
    meta = {
        "finalized": False,
        "source": {"path": "t.pcap", "format": "pcap", "offset": 1234},
        "sinks": [{"kind": "csv", "path": "out.csv", "offset": 77}],
        "runner": {"records": 10, "end_ns": 999},
    }
    write_checkpoint(path, payload, meta)
    return path


class TestRoundTrip:
    def test_payload_and_meta_survive(self, checkpoint):
        loaded = read_checkpoint(checkpoint)
        assert loaded.payload == {"monitors": {"dart": [1, 2, 3]},
                                  "analytics": None}
        assert loaded.header["source"]["offset"] == 1234
        assert loaded.header["sinks"][0]["kind"] == "csv"
        assert not loaded.finalized

    def test_header_readable_without_unpickling(self, checkpoint):
        header = read_header(checkpoint)
        assert header["runner"] == {"records": 10, "end_ns": 999}
        assert header["payload_len"] > 0
        assert len(header["payload_sha256"]) == 64

    def test_write_is_atomic(self, checkpoint, tmp_path):
        # A second write lands completely or not at all: no .tmp left.
        write_checkpoint(checkpoint, {"v": 2}, {"finalized": True})
        assert read_checkpoint(checkpoint).payload == {"v": 2}
        assert not (tmp_path / "state.ckpt.tmp").exists()

    def test_replace_mid_read_cannot_mix_two_checkpoints(
        self, checkpoint, tmp_path, monkeypatch
    ):
        # A live daemon's os.replace can land between any two reads of
        # a racing --inspect/--resume.  One handle reads one file: the
        # loader must see the old checkpoint whole (or the new one
        # whole), never the old header with the new payload.
        newer = tmp_path / "newer.ckpt"
        write_checkpoint(newer, {"monitors": {"dart": list(range(99))}},
                         {"finalized": True})
        opens = []

        def open_then_replace(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            if not opens:
                os.replace(newer, checkpoint)
            opens.append(file)
            return handle

        monkeypatch.setattr(checkpoint_module, "open", open_then_replace,
                            raising=False)
        loaded = read_checkpoint(checkpoint)
        assert loaded.payload == {"monitors": {"dart": [1, 2, 3]},
                                  "analytics": None}
        assert not loaded.finalized
        assert read_checkpoint(checkpoint).finalized  # the new one, whole


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "notckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointCorrupt):
            read_header(path)

    def test_payload_bit_flip(self, checkpoint):
        blob = bytearray(checkpoint.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte; header stays intact
        checkpoint.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(checkpoint)

    def test_truncated_payload(self, checkpoint):
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[:-4])
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(checkpoint)

    def test_schema_mismatch(self, checkpoint):
        blob = checkpoint.read_bytes()
        header_len = struct.unpack(">I", blob[8:12])[0]
        header = json.loads(blob[12 : 12 + header_len])
        header["schema"] = "dart-stream-checkpoint/999"
        new_header = json.dumps(header, sort_keys=True).encode()
        rewritten = (
            MAGIC + struct.pack(">I", len(new_header)) + new_header
            + blob[12 + header_len:]
        )
        checkpoint.write_bytes(rewritten)
        with pytest.raises(CheckpointSchemaMismatch):
            read_header(checkpoint)

    def test_header_not_json(self, checkpoint):
        blob = checkpoint.read_bytes()
        header_len = struct.unpack(">I", blob[8:12])[0]
        rewritten = (
            MAGIC + struct.pack(">I", header_len)
            + b"\xff" * header_len + blob[12 + header_len:]
        )
        checkpoint.write_bytes(rewritten)
        with pytest.raises(CheckpointCorrupt):
            read_header(checkpoint)

    def test_implausible_header_length(self, tmp_path):
        path = tmp_path / "huge"
        path.write_bytes(MAGIC + struct.pack(">I", 1 << 30))
        with pytest.raises(CheckpointCorrupt):
            read_header(path)


class TestDistributionPayload:
    def test_round_trip_payload_sha256_is_stable(self, tmp_path):
        # The distribution stage's pickle must be canonical: re-writing
        # a read-back checkpoint yields the same payload digest, even
        # when one side was read (flushed) mid-run and the other never
        # was.  Resumed daemons checkpoint the restored state — a
        # history-dependent pickle would make their digests drift.
        from repro.core.flow import FlowKey
        from repro.core.hist import DistributionAnalytics, HistogramSpec
        from repro.core.samples import RttSample

        dist = DistributionAnalytics(HistogramSpec.log_bins(8),
                                     quantiles=(50.0, 99.0))
        for i in range(200):
            flow = FlowKey(src_ip=0x0A000001, dst_ip=0x10000005 + i % 5,
                           src_port=1, dst_port=443)
            dist.add(RttSample(flow=flow, rtt_ns=(i % 37 + 1) * 1_000_000,
                               timestamp_ns=i, eack=0))
            if i == 77:
                _ = dist.percentiles()  # mid-run read flushes the buffer

        first = tmp_path / "first.ckpt"
        write_checkpoint(first, {"analytics": dist}, {"finalized": False})
        loaded = read_checkpoint(first)
        second = tmp_path / "second.ckpt"
        write_checkpoint(second, loaded.payload, {"finalized": False})
        assert (read_header(first)["payload_sha256"]
                == read_header(second)["payload_sha256"])
