"""Figure 6: internal-leg RTT distributions, wired vs wireless subnets.

Replays the campus trace measuring the *internal* leg only and prints
the CDF of RTT samples for the wired (10.1/16) and wireless (10.2/16)
subnets, plus the paper's headline claims:

* wired: more than 80% of internal RTTs under 1 ms;
* wireless: fewer than 40% under 1 ms, more than 20% above 20 ms;
* far more wireless samples than wired (mobile-heavy campus).
"""

from repro.analysis import fraction_above, fraction_below, render_cdf
from repro.core import Dart, ideal_config
from repro.traces.campus import WIRED_NET, WIRELESS_NET

CDF_POINTS = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]


def split_internal_samples(campus_trace, internal_leg):
    dart = Dart(ideal_config(), leg_filter=internal_leg())
    dart.process_batch(campus_trace.records)
    dart.finalize()
    wired, wireless = [], []
    for sample in dart.samples:
        client = sample.flow.dst_ip  # internal data flows toward campus
        if client >> 16 == WIRED_NET >> 16:
            wired.append(sample.rtt_ms)
        elif client >> 16 == WIRELESS_NET >> 16:
            wireless.append(sample.rtt_ms)
    return wired, wireless


def test_fig6_wired_vs_wireless(benchmark, campus_trace, internal_leg,
                                report_sink):
    wired, wireless = benchmark.pedantic(
        split_internal_samples, args=(campus_trace, internal_leg),
        rounds=1, iterations=1,
    )
    lines = [
        render_cdf(
            {"wired 10.1/16": wired, "wireless 10.2/16": wireless},
            points=CDF_POINTS,
            title="Figure 6: internal-leg RTT CDF by subnet (values are "
                  "P[RTT < x] in %)",
        ),
        "",
        f"wired samples:    {len(wired)}",
        f"wireless samples: {len(wireless)}  "
        f"(paper: 11.12M wireless vs 1.66M wired)",
        f"wired    P[<1ms]  = {100 * fraction_below(wired, 1.0):.1f}%   "
        f"(paper: >80%)",
        f"wireless P[<1ms]  = {100 * fraction_below(wireless, 1.0):.1f}%   "
        f"(paper: <40%)",
        f"wireless P[>20ms] = {100 * fraction_above(wireless, 20.0):.1f}%   "
        f"(paper: >20%)",
    ]
    report_sink("\n".join(lines))
    assert len(wireless) > len(wired)
    assert fraction_below(wired, 1.0) > fraction_below(wireless, 1.0)
