"""Prometheus text exposition: validity, labels, histogram families, round-trip."""

import math

import pytest

from repro.telemetry.export import DEFAULT_BUCKETS, parse_prometheus, render_prometheus
from repro.telemetry import metrics as telemetry_metrics

pytestmark = pytest.mark.obs


@pytest.fixture()
def registry():
    registry = telemetry_metrics.MetricsRegistry()
    registry.counter("serve.requests").increment(12)
    registry.counter("serve.route_errors.score").increment(3)
    registry.gauge("serve.nodes.user").set(42.0)
    for value in (0.0004, 0.002, 0.03, 0.4):
        registry.histogram("serve.route_latency.score").record(value)
    registry.histogram("span.fit/epoch/batch").record(0.01)
    registry.histogram("train.step").record(0.5)
    return registry


class TestRender:
    def test_counter_total_family(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        assert families["repro_serve_requests_total"][()] == 12

    def test_route_errors_get_route_label(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        assert families["repro_serve_route_errors_total"][(("route", "score"),)] == 3

    def test_gauge(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        assert families["repro_serve_nodes_user"][()] == 42.0

    def test_route_latency_histogram_family(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        buckets = {
            labels: value
            for labels, value in families["repro_serve_route_latency_seconds_bucket"].items()
            if ("route", "score") in labels
        }
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1  # + the +Inf bucket
        # cumulative counts are monotone non-decreasing in the bucket bound
        ordered = sorted(
            ((float(dict(labels)["le"]), value) for labels, value in buckets.items()),
            key=lambda pair: pair[0],
        )
        values = [value for _, value in ordered]
        assert values == sorted(values)
        assert ordered[-1][0] == math.inf and ordered[-1][1] == 4

    def test_histogram_sum_count_exact(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        labels = (("route", "score"),)
        assert families["repro_serve_route_latency_seconds_count"][labels] == 4
        assert families["repro_serve_route_latency_seconds_sum"][labels] == pytest.approx(
            0.0004 + 0.002 + 0.03 + 0.4
        )

    def test_quantile_gauges(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        labels = (("route", "score"),)
        p50 = families["repro_serve_route_latency_p50_seconds"][labels]
        p95 = families["repro_serve_route_latency_p95_seconds"][labels]
        p99 = families["repro_serve_route_latency_p99_seconds"][labels]
        assert 0.0 < p50 <= p95 <= p99 <= 0.4
        hist = registry.histogram("serve.route_latency.score")
        assert p50 == hist.percentile(0.50)

    def test_span_histograms_get_path_label(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        labels = (("path", "fit/epoch/batch"),)
        assert families["repro_span_duration_seconds_count"][labels] == 1

    def test_generic_histogram_name(self, registry):
        families = parse_prometheus(render_prometheus(registry))
        assert families["repro_train_step_seconds_count"][()] == 1

    def test_every_line_is_valid_exposition(self, registry):
        text = render_prometheus(registry)
        assert text.endswith("\n")
        # parse_prometheus raises on any malformed line
        parse_prometheus(text)
        for line in text.splitlines():
            assert line == line.strip()

    def test_type_comments_present_once_per_family(self, registry):
        text = render_prometheus(registry)
        type_lines = [line for line in text.splitlines() if line.startswith("# TYPE ")]
        names = [line.split()[2] for line in type_lines]
        assert len(names) == len(set(names))
        assert "repro_serve_requests_total" in names

    def test_empty_registry_renders(self):
        assert render_prometheus(telemetry_metrics.MetricsRegistry()) == "\n"


class TestParse:
    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not } exposition text")

    def test_escaped_labels_round_trip(self):
        registry = telemetry_metrics.MetricsRegistry()
        registry.counter('serve.route_errors.we"ird').increment(1)
        families = parse_prometheus(render_prometheus(registry))
        assert families["repro_serve_route_errors_total"][(("route", 'we"ird'),)] == 1


class TestGlobalRegistryRoundTrip:
    def test_default_registry_counts_match(self):
        telemetry_metrics.increment("serve.requests", 5)
        telemetry_metrics.record_timing("serve.route_latency.topn", 0.001)
        families = parse_prometheus(render_prometheus())
        live = telemetry_metrics.get_registry()
        assert families["repro_serve_requests_total"][()] == live.counters()["serve.requests"]
        hist = live.histogram("serve.route_latency.topn")
        assert families["repro_serve_route_latency_seconds_count"][(("route", "topn"),)] == hist.count
