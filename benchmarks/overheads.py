#!/usr/bin/env python
"""Three overhead budgets ``benchmarks/e2e`` does not hold, in absolute ns.

``benchmarks/e2e`` judges every workload end to end.  It does not ask
what three optional layers *add* to the serial pass, so this script
does, and nothing else:

* **engine** — ``MonitorEngine.run`` (chunked ingest + sample routing)
  minus the ``Dart.process_batch`` loop it wraps;
* **telemetry** — the engine with a JSON ``TelemetryEmitter`` emitting
  every 50 ms into ``os.devnull``, minus the plain engine;
* **distribution** — the engine with the histogram + sketch stage
  (32 log bins per destination /24, the deployed shape) swapped in for
  ``CollectAll`` retention, minus the plain engine.

Protocol (both sides stamped in one process, interleaved, differenced
per round — a ratio of two separately timed blocks measures the machine
drifting between them): one discarded pass per leg, which is also the
sample-count parity check (no number prints unless every leg saw the
same samples); then ``ROUNDS`` rounds of all four legs with the
collector off, order reversed on odd rounds.  A row is the median and
MAD of its per-round differences, per packet or per sample, judged
against an absolute budget by :func:`judge`.  A budget inside the
measured dispersion is ``unresolved``: it neither passes nor fails on
scheduling luck.  Only ``regressed`` exits non-zero.

There are no flags: the table below is the whole configuration.  Never
edit a budget in the change that trips it.

    PYTHONPATH=src python benchmarks/overheads.py
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from statistics import median
from time import perf_counter_ns
from typing import Dict, List, NamedTuple, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import Dart, DartConfig  # noqa: E402
from repro.core.analytics import DstPrefixKey  # noqa: E402
from repro.core.hist import DistributionFactory, HistogramSpec  # noqa: E402
from repro.engine import MonitorEngine  # noqa: E402
from repro.obs import TelemetryEmitter  # noqa: E402
from repro.traces import CampusTraceConfig, generate_campus_trace  # noqa: E402

# The pinned trace: constrained tables, so evictions and recirculations
# occur and the legs time the real pipeline, not the associative case.
CONNECTIONS = 500
SEED = 11
CONFIG = DartConfig(rt_slots=1 << 18, pt_slots=1 << 14, pt_stages=1,
                    max_recirculations=1)
ROUNDS = 15
#: Short enough that one sub-second pass pays for several whole
#: collect-snapshot-format-write cycles, not just the interval checks.
TELEMETRY_INTERVAL_S = 0.05
#: No inner stage: in deployment the stage *replaces* per-sample
#: retention, so the row prices the swap an operator actually makes.
HIST_FACTORY = DistributionFactory(spec=HistogramSpec.log_bins(32),
                                   key_fn=DstPrefixKey(24))


class Row(NamedTuple):
    name: str       # also the leg that pays for the layer
    minus: str      # the leg that does not
    per: str        # "packet" or "sample": what one difference is divided by
    budget_ns: int


#: 400 and 250 are 5 % and 3 % of a 7.9 µs packet, the old percentage
#: gates frozen as absolutes; 2 500 is what every run on the 2-core
#: sandbox clears (1.1–1.9 µs/sample, MAD 0.2–0.7 over eleven runs).
ROWS = (
    Row("engine", "direct", "packet", 400),
    Row("telemetry", "engine", "packet", 250),
    Row("distribution", "engine", "sample", 2500),
)


def _timed(run, records) -> int:
    start = perf_counter_ns()
    run(records)
    return perf_counter_ns() - start


def _engine_pass(records, dart: Dart, telemetry=None) -> Tuple[int, Dart]:
    engine = MonitorEngine(telemetry=telemetry)
    engine.add_monitor(dart, name="dart")
    return _timed(engine.run, records), dart


def direct(records) -> Tuple[int, Dart]:
    dart = Dart(CONFIG)
    return _timed(dart.process_batch, records), dart


def engine(records) -> Tuple[int, Dart]:
    return _engine_pass(records, Dart(CONFIG))


def telemetry(records) -> Tuple[int, Dart]:
    # JSON into os.devnull pays the whole emission cycle but no terminal
    # or disk I/O, which would measure the machine.
    with open(os.devnull, "w") as sink:
        return _engine_pass(records, Dart(CONFIG), TelemetryEmitter(
            "json", interval_s=TELEMETRY_INTERVAL_S, stream=sink))


def distribution(records) -> Tuple[int, Dart]:
    return _engine_pass(records, Dart(CONFIG, analytics=HIST_FACTORY()))


LEGS = {"direct": direct, "engine": engine, "telemetry": telemetry,
        "distribution": distribution}


def judge(differences: Sequence[float],
          budget: float) -> Tuple[float, float, str]:
    """``(median, MAD, verdict)`` of per-round differences against a budget.

    ``ok`` needs the whole median ± MAD band at or under the budget,
    ``regressed`` the whole band over it; a budget inside the band is
    ``unresolved``.
    """
    mid = median(differences)
    mad = median(abs(d - mid) for d in differences)
    if mid + mad <= budget:
        return mid, mad, "ok"
    if mid - mad > budget:
        return mid, mad, "regressed"
    return mid, mad, "unresolved"


def measure(records) -> Tuple[List[Dict[str, int]], int]:
    """Per-round elapsed ns of every leg, and the samples each one saw."""
    warm = {name: leg(records)[1] for name, leg in LEGS.items()}
    counts = {name: dart.stats.samples for name, dart in warm.items()}
    counts["distribution stage"] = warm["distribution"].analytics.count
    samples = counts["direct"]
    if not samples or set(counts.values()) != {samples}:
        raise SystemExit(f"overheads: legs disagree on the samples they saw "
                         f"({counts}); refusing to time them")
    del warm
    order = list(LEGS)
    rounds = []
    for index in range(ROUNDS):
        # A generational sweep landing in one leg and not its partner is
        # exactly the few-hundred-ns noise the budgets are sized at.
        gc.collect()
        gc.disable()
        try:
            rounds.append({name: LEGS[name](records)[0]
                           for name in (order[::-1] if index % 2 else order)})
        finally:
            gc.enable()
    return rounds, samples


def main() -> int:
    if len(sys.argv) > 1:
        print("overheads.py takes no arguments", file=sys.stderr)
        return 2
    records = generate_campus_trace(
        CampusTraceConfig(connections=CONNECTIONS, seed=SEED)).records
    rounds, samples = measure(records)
    packets = len(records)
    print(f"overheads: {packets} packets, {samples} samples per leg "
          f"({CONNECTIONS} connections, seed {SEED}, 2^18 RT / 2^14 PT, "
          f"1 stage, 1 recirculation); {ROUNDS} rounds, gc off")
    print("direct pass: median "
          f"{median(r['direct'] for r in rounds) / packets:.0f} ns/packet")
    print(f"{'row':<13}{'median':>9}{'MAD':>8}{'budget':>8}  "
          f"{'unit':<10} verdict")
    regressed = False
    for row in ROWS:
        divisor = packets if row.per == "packet" else samples
        mid, mad, verdict = judge(
            [(r[row.name] - r[row.minus]) / divisor for r in rounds],
            row.budget_ns)
        regressed |= verdict == "regressed"
        print(f"{row.name:<13}{mid:>+9.0f}{mad:>8.0f}{row.budget_ns:>8}  "
              f"{'ns/' + row.per:<10} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
