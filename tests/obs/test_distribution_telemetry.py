"""Telemetry for the distribution stage: collector and exposition.

``collect_distribution`` samples a :class:`DistributionAnalytics` into
the registry once per emission — `dart_rtt_hist` as a native
Prometheus histogram (seconds) and `dart_rtt_p<q>` sketch gauges —
with the all-traffic aggregate under ``key=""`` plus a bounded number
of busiest per-key series.
"""

import json

from repro.core.analytics import DstPrefixKey
from repro.core.flow import FlowKey
from repro.core.hist import DistributionAnalytics, HistogramSpec
from repro.core.samples import RttSample
from repro.obs.collect import collect_distribution
from repro.obs.exporters import to_prometheus
from repro.obs.metrics import MetricsRegistry

MS = 1_000_000


def _sample(dst_ip, rtt_ns, i=0):
    flow = FlowKey(src_ip=0x0A000001, dst_ip=dst_ip,
                   src_port=10, dst_port=443)
    return RttSample(flow=flow, rtt_ns=rtt_ns, timestamp_ns=i, eack=0)


def _distribution(keys=3, samples_per_key=5):
    dist = DistributionAnalytics(
        HistogramSpec(edges_ns=(1 * MS, 10 * MS, 100 * MS)),
        key_fn=DstPrefixKey(24),
        quantiles=(50.0, 99.0),
    )
    for k in range(keys):
        for i in range(samples_per_key):
            dist.add(_sample(0x10000000 + (k << 8) + 5,
                             (k * 10 + i + 1) * MS, i))
    return dist


def test_empty_distribution_emits_nothing():
    registry = MetricsRegistry()
    dist = DistributionAnalytics(HistogramSpec(edges_ns=(MS,)))
    collect_distribution(registry, dist, "dart")
    assert "dart_rtt_hist" not in to_prometheus(registry)


def test_exposition_carries_buckets_and_quantiles():
    registry = MetricsRegistry()
    collect_distribution(registry, _distribution(), "dart")
    text = to_prometheus(registry)
    assert 'dart_rtt_hist_bucket{' in text
    assert 'le="+Inf"' in text
    assert "dart_rtt_hist_sum{" in text
    assert "dart_rtt_hist_count{" in text
    assert "dart_rtt_p50{" in text
    assert "dart_rtt_p99{" in text
    # The all-traffic aggregate and the per-prefix series both render.
    assert 'key=""' in text
    assert 'key="16.0.0.0/24"' in text


def test_aggregate_count_matches_samples():
    registry = MetricsRegistry()
    dist = _distribution(keys=2, samples_per_key=4)
    collect_distribution(registry, dist, "dart")
    text = to_prometheus(registry)
    for line in text.splitlines():
        if line.startswith("dart_rtt_hist_count") and 'key=""' in line:
            assert float(line.rsplit(" ", 1)[1]) == 8.0
            break
    else:
        raise AssertionError("aggregate _count series missing")


def test_top_keys_bounds_scrape_size():
    registry = MetricsRegistry()
    collect_distribution(registry, _distribution(keys=6), "dart",
                         top_keys=2)
    text = to_prometheus(registry)
    count_series = [line for line in text.splitlines()
                    if line.startswith("dart_rtt_hist_count")]
    # aggregate + 2 busiest keys
    assert len(count_series) == 3


def test_collect_flushes_buffered_state():
    # The collector must see samples added since the last read — the
    # buffered hot path only folds into the stages on flush.
    registry = MetricsRegistry()
    dist = _distribution(keys=1, samples_per_key=3)
    _ = dist.count
    dist.add(_sample(0x10000005, 50 * MS))
    collect_distribution(registry, dist, "dart")
    text = to_prometheus(registry)
    for line in text.splitlines():
        if line.startswith("dart_rtt_hist_count") and 'key=""' in line:
            assert float(line.rsplit(" ", 1)[1]) == 4.0
            return
    raise AssertionError("aggregate _count series missing")


def test_ipv6_prefix_key_has_one_label_everywhere(tmp_path):
    # One IPv6 sample used to make every later emission raise "IPv4
    # address out of range" here while the window sink rendered the same
    # key fine: one describe_key now serves both.
    from repro.core.analytics import WindowMinimum
    from repro.export import WindowJsonlSink
    from repro.net.inet import ipv6_to_int

    flow = FlowKey(src_ip=ipv6_to_int("2001:db8::1"),
                   dst_ip=ipv6_to_int("2001:db8::105"),
                   src_port=10, dst_port=443, ipv6=True)
    sample = RttSample(flow=flow, rtt_ns=5 * MS, timestamp_ns=9, eack=0)
    dist = _distribution(keys=1)
    dist.add(sample)
    key = DstPrefixKey(24)(sample)

    registry = MetricsRegistry()
    collect_distribution(registry, dist, "dart")
    text = to_prometheus(registry)
    assert 'key="2001:db8::100"' in text
    assert 'key="16.0.0.0/24"' in text  # the IPv4 label is unchanged

    path = tmp_path / "windows.jsonl"
    with WindowJsonlSink(path) as sink:
        sink.add(WindowMinimum(key, 0, MS, 1, 9))
        sink.add(WindowMinimum(0x10000000, 0, MS, 1, 9))
    assert [json.loads(line)["key"] for line in path.read_text().splitlines()
            ] == ["2001:db8::100", "16.0.0.0"]
