"""numpy is optional: a numpy-less interpreter, for real.

The "numpy hidden" legs elsewhere flip ``columnar.HAVE_NUMPY`` inside a
process that has already imported numpy, so a module-level ``import
numpy`` anywhere under ``repro`` passes them — and ``import repro``
itself once failed without numpy for that reason.  Here one subprocess
refuses the import at ``sys.meta_path`` (which is what an interpreter
without the package does), imports every ``repro`` module, and replays
a capture; the CSV it writes must be the bytes a numpy-visible run
writes.  A second subprocess runs a two-shard process-mode cluster over
the same capture through ``process_wire``: the packed-record route
(header parsed at dispatch, ``Dart.process_framed`` in the worker)
loads numpy on neither side of the process boundary, even where it is
installed — each worker reports ``sys.modules`` from ``finalize``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import replay
from repro.net.columnar import HAVE_NUMPY
from repro.net.pcap import write_packets
from repro.traces import CampusTraceConfig, generate_campus_trace

SRC = Path(__file__).resolve().parent.parent / "src"

TABLES = ["--rt-slots", "1024", "--pt-slots", "256", "--stages", "2",
          "--recirc", "2"]

BLOCK_NUMPY = """
import importlib, pkgutil, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError("No module named 'numpy' (blocked by "
                                      "the test)", name=name)

sys.meta_path.insert(0, NoNumpy())
"""

NUMPY_LESS = BLOCK_NUMPY + """
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
assert "numpy" not in sys.modules
from repro.net import columnar
assert columnar.HAVE_NUMPY is False
from repro.cli import replay
sys.exit(replay.main(sys.argv[1:]))
"""

CLUSTER_RUN = """
import multiprocessing
import pathlib
import sys
import tempfile
from collections import Counter

from repro.cluster import ShardedDart
from repro.core import Dart, ideal_config
from repro.net.framing import REC_V4, BatchEncoder
from repro.net.packet import from_wire_bytes
from repro.net.pcapng import read_any_frames

reports = pathlib.Path(tempfile.mkdtemp())

class NumpyReportingDart(Dart):
    # Runs in the worker: leaves "is numpy loaded here?" behind.
    def finalize(self, at_ns=None):
        super().finalize(at_ns)
        name = multiprocessing.current_process().name
        (reports / name).write_text(str("numpy" in sys.modules))

frames = list(read_any_frames(sys.argv[1]))
serial = Dart(ideal_config())
serial.process_batch(
    [from_wire_bytes(frame, ts, linktype_ethernet=eth)
     for ts, eth, frame in frames])
serial.finalize()

kinds = Counter()
take = BatchEncoder.take
def counting_take(self):
    batch = take(self)
    kinds[batch[2]] += 1
    return batch
BatchEncoder.take = counting_take

cluster = ShardedDart(shards=2, parallel="process", batch_size=256,
                      join_timeout=30.0,
                      monitor_factory=lambda: NumpyReportingDart(ideal_config()))
for ts, eth, frame in frames:
    cluster.process_wire(frame, ts, linktype_ethernet=eth)
cluster.finalize()
assert "numpy" not in sys.modules
workers = {path.name: path.read_text() for path in reports.iterdir()}
assert workers == {"dart-shard-0": "False", "dart-shard-1": "False"}, workers
assert set(kinds) == {REC_V4}, kinds
assert cluster.wire_skipped == 0
assert cluster.stats == serial.stats, (cluster.stats, serial.stats)
assert Counter(cluster.samples) == Counter(serial.samples)
print(cluster.stats.packets_processed, len(cluster.samples))
"""


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    """(pcap, completed subprocess, the CSV it wrote) — one subprocess."""
    tmp_path = tmp_path_factory.mktemp("without_numpy")
    pcap = tmp_path / "campus.pcap"
    write_packets(str(pcap), generate_campus_trace(
        CampusTraceConfig(connections=60, seed=18)).records)
    csv = tmp_path / "blocked.csv"
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_LESS, str(pcap), "--csv", str(csv),
         *TABLES],
        capture_output=True, text=True, timeout=240,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return pcap, result, csv


def test_every_module_imports_and_replay_runs(blocked_run):
    _, result, csv = blocked_run
    assert result.returncode == 0, result.stderr
    assert csv.stat().st_size > 0


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="no numpy-visible run to compare against")
def test_csv_equals_the_numpy_visible_run(blocked_run, tmp_path):
    pcap, result, blocked_csv = blocked_run
    assert result.returncode == 0, result.stderr
    visible_csv = tmp_path / "visible.csv"
    assert replay.main([str(pcap), "--csv", str(visible_csv), *TABLES]) == 0
    assert blocked_csv.read_bytes() == visible_csv.read_bytes()


@pytest.mark.parametrize("prelude", [BLOCK_NUMPY, ""],
                         ids=["numpy_refused", "numpy_installed"])
def test_process_cluster_over_process_wire_needs_no_numpy(blocked_run,
                                                          prelude):
    """Refused or merely installed, neither the coordinator nor any
    worker imports numpy (it costs ~12 MiB of resident memory and
    ~0.1 s of CPU per process) and the answers equal the serial
    monitor's."""
    pcap, _, _ = blocked_run
    result = subprocess.run(
        [sys.executable, "-c", prelude + CLUSTER_RUN, str(pcap)],
        capture_output=True, text=True, timeout=240,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    packets, samples = map(int, result.stdout.split())
    assert packets > 0 and samples > 0
