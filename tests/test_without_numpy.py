"""numpy is optional: a numpy-less interpreter, for real.

The "numpy hidden" legs elsewhere flip ``columnar.HAVE_NUMPY`` inside a
process that has already imported numpy, so a module-level ``import
numpy`` anywhere under ``repro`` passes them — and ``import repro``
itself once failed without numpy for that reason.  Here one subprocess
refuses the import at ``sys.meta_path`` (which is what an interpreter
without the package does), imports every ``repro`` module, and replays
a capture; the CSV it writes must be the bytes a numpy-visible run
writes.
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

NUMPY_LESS = """
import importlib, pkgutil, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError("No module named 'numpy' (blocked by "
                                      "the test)", name=name)

sys.meta_path.insert(0, NoNumpy())

import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
assert "numpy" not in sys.modules
from repro.net import columnar
assert columnar.HAVE_NUMPY is False
from repro.cli import replay
sys.exit(replay.main(sys.argv[1:]))
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
