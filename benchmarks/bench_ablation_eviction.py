"""Ablation: lazy eviction with a second chance vs the §2.3 alternatives.

DESIGN.md calls out the PT contention policy as Dart's key mechanism.
This bench pits, at the same (small) PT size:

* **second chance** — the paper's design (evict, recirculate, RT
  re-validation, older valid records win);
* **blind overwrite** — a recirculation budget of zero, i.e. the newest
  record always wins (the §2.3 strawman option with its bias toward
  short RTTs);
* **timeout strawman** — the §2.1 hash table with an entry timeout.

Reported per policy: fraction of baseline samples collected and the p95
collection error (blind overwrite and timeouts bias against long RTTs,
so their p95 error is positive/larger).
"""

from _sweeps import LARGE_RT, baseline_rtts, run_config

from repro.analysis import collection_error_percent, render_table
from repro.baselines import Strawman
from repro.core import DartConfig

PT_SLOTS = 1 << 8
MS = 1_000_000


def run_ablation(campus_trace, external_leg):
    reference = baseline_rtts(campus_trace, external_leg)
    second_chance = run_config(
        campus_trace, external_leg,
        DartConfig(rt_slots=LARGE_RT, pt_slots=PT_SLOTS,
                   max_recirculations=1),
        reference,
    )
    blind = run_config(
        campus_trace, external_leg,
        DartConfig(rt_slots=LARGE_RT, pt_slots=PT_SLOTS,
                   max_recirculations=0),
        reference,
    )
    timeout_monitor = Strawman(slots=PT_SLOTS, timeout_ns=250 * MS,
                               leg_filter=external_leg())
    timeout_monitor.process_batch(campus_trace.records)
    timeout_monitor.finalize()
    timeout_rtts = [s.rtt_ns for s in timeout_monitor.samples]
    return reference, second_chance, blind, timeout_rtts


def test_ablation_eviction_policies(benchmark, campus_trace, external_leg,
                                    report_sink):
    reference, second_chance, blind, timeout_rtts = benchmark.pedantic(
        run_ablation, args=(campus_trace, external_leg),
        rounds=1, iterations=1,
    )
    timeout_fraction = 100 * len(timeout_rtts) / len(reference)
    timeout_err95 = collection_error_percent(reference, timeout_rtts, 95)
    rows = [
        ["second chance (paper)", second_chance.fraction_collected,
         second_chance.error_p95, second_chance.recirculations_per_packet],
        ["blind overwrite (budget 0)", blind.fraction_collected,
         blind.error_p95, blind.recirculations_per_packet],
        ["timeout strawman (250 ms)", timeout_fraction, timeout_err95, 0.0],
    ]
    report = render_table(
        ["eviction policy", "fraction (%)", "err p95 (%)", "recirc/pkt"],
        rows,
        title=f"Ablation: PT contention policies at {PT_SLOTS} slots",
        float_format="{:.3f}",
    )
    report_sink(report)
    # The second chance must dominate blind overwrite on tail accuracy.
    assert abs(second_chance.error_p95) <= abs(blind.error_p95) + 0.5
    assert second_chance.fraction_collected >= blind.fraction_collected - 1.0
