"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and prints
the corresponding rows/series (also appended to
``benchmarks/results/<name>.txt`` so the output survives pytest's
capture).  The synthetic campus trace is generated once per session and
shared; its scale can be adjusted with the ``REPRO_BENCH_CONNECTIONS``
environment variable (default 2500, ~170k packets — about 1/800 of the
paper's trace, with table sizes scaled to match the collision pressure).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import LegFilter
from repro.traces import CampusTraceConfig, generate_campus_trace

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "2500"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))


@pytest.fixture(scope="session")
def campus_trace():
    """The session-wide synthetic campus trace."""
    config = CampusTraceConfig(connections=DEFAULT_CONNECTIONS,
                               seed=BENCH_SEED)
    return generate_campus_trace(config)


@pytest.fixture(scope="session")
def external_leg(campus_trace):
    """Factory for fresh external-leg filters bound to the trace."""

    def make():
        return LegFilter(campus_trace.internal, legs=("external",))

    return make


@pytest.fixture(scope="session")
def internal_leg(campus_trace):
    """Factory for fresh internal-leg filters bound to the trace."""

    def make():
        return LegFilter(campus_trace.internal, legs=("internal",))

    return make


@pytest.fixture()
def report_sink(request):
    """Prints a bench's report and archives it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(text: str) -> None:
        print()
        print(text)
        name = request.node.name.replace("/", "_")
        out = RESULTS_DIR / f"{name}.txt"
        out.write_text(text + "\n")

    return emit
