"""Fleet merging: snapshots, aggregate registries, merged exposition, Chrome trace.

Satellite coverage for the Prometheus merge semantics: the merged
multi-worker exposition must round-trip through ``parse_prometheus`` with
label escaping intact (quotes, backslashes, newlines), histogram buckets and
counters must genuinely sum across workers, and same-name families carrying
different label sets (aggregate unlabelled + per-worker ``worker="N"``) must
coexist in one exposition.
"""

import math

import pytest

from repro.telemetry import export as fleet
from repro.telemetry import tracing
from repro.telemetry.export import parse_prometheus, render_prometheus, render_prometheus_multi
from repro.telemetry.metrics import MetricsRegistry

pytestmark = [pytest.mark.obs, pytest.mark.trace]


def _registry(counters=(), timings=(), gauges=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).increment(value)
    for name, samples in timings:
        for sample in samples:
            registry.histogram(name).record(sample)
    for name, value in gauges:
        registry.gauge(name).set(value)
    return registry


def _snapshot_of(registry, pid=1234, spans=(), span_dropped=0):
    return {
        "version": fleet.SNAPSHOT_VERSION,
        "pid": pid,
        "counters": registry.counters(),
        "gauges": registry.gauges(),
        "histograms": {n: h.state() for n, h in registry.histograms().items()},
        "spans": list(spans),
        "span_dropped": span_dropped,
    }


class TestWorkerSnapshot:
    def test_snapshot_is_plain_data_and_complete(self):
        from repro.telemetry import increment, record_timing

        increment("serve.scores", 7)
        record_timing("serve.batch.wait", 0.25)
        with tracing.span("serve.request"):
            pass
        snap = fleet.worker_snapshot()
        assert snap["counters"]["serve.scores"] == 7
        assert snap["histograms"]["serve.batch.wait"]["count"] == 1
        assert snap["spans"][0]["name"] == "serve.request"
        assert snap["span_dropped"] == 0
        import json

        json.dumps(snap["counters"])  # counters/gauges must be JSON-safe

    def test_snapshot_caps_spans_and_counts_the_cut(self):
        for _ in range(10):
            with tracing.span("s"):
                pass
        snap = fleet.worker_snapshot(max_spans=4)
        assert len(snap["spans"]) == 4
        assert snap["span_dropped"] == 6


class TestMerge:
    def test_counters_sum_across_snapshots(self):
        a = _snapshot_of(_registry(counters=[("serve.scores", 5), ("serve.shed", 1)]))
        b = _snapshot_of(_registry(counters=[("serve.scores", 3)]))
        merged = fleet.merge_snapshots([a, b])
        assert merged.counters() == {"serve.scores": 8, "serve.shed": 1}

    def test_histograms_merge_counts_totals_and_max(self):
        a = _snapshot_of(_registry(timings=[("lat", [0.1, 0.2])]))
        b = _snapshot_of(_registry(timings=[("lat", [0.4])]))
        merged = fleet.merge_snapshots([a, b])
        summary = merged.timings()["lat"]
        assert summary["count"] == 3
        assert math.isclose(summary["total_s"], 0.7)
        assert math.isclose(summary["max_s"], 0.4)

    def test_gauges_stay_per_worker_only(self):
        a = _snapshot_of(_registry(gauges=[("depth", 3.0)]))
        merged = fleet.merge_snapshots([a])
        assert merged.gauges() == {}
        assert fleet.registry_from_snapshot(a).gauges() == {"depth": 3.0}


class TestMergedExposition:
    def test_aggregate_equals_sum_of_labelled_series(self):
        worker_a = _snapshot_of(_registry(counters=[("serve.scores", 5)]))
        worker_b = _snapshot_of(_registry(counters=[("serve.scores", 9)]))
        parent = _registry(counters=[("serve.requests", 2)])
        text = fleet.render_fleet(parent, [worker_a, worker_b])
        families = parse_prometheus(text)
        scores = families["repro_serve_scores_total"]
        assert scores[()] == 14
        assert scores[(("worker", "0"),)] == 5
        assert scores[(("worker", "1"),)] == 9
        requests = families["repro_serve_requests_total"]
        assert requests[()] == 2
        assert requests[(("worker", "parent"),)] == 2

    def test_same_family_different_label_sets_coexist(self):
        """Aggregate (no labels) + per-worker (worker=) + route labels all in
        one family must survive render→parse."""
        worker = _snapshot_of(
            _registry(counters=[("serve.route_errors./score", 2)])
        )
        text = fleet.render_fleet(None, [worker])
        families = parse_prometheus(text)
        errors = families["repro_serve_route_errors_total"]
        assert errors[(("route", "/score"),)] == 2
        assert errors[(("worker", "0"), ("route", "/score"))] == 2
        # Exactly one TYPE line per family even though two sections emit it.
        assert text.count("# TYPE repro_serve_route_errors_total counter") == 1

    def test_histogram_buckets_merge_and_round_trip(self):
        worker_a = _snapshot_of(_registry(timings=[("lat", [0.0004, 0.003])]))
        worker_b = _snapshot_of(_registry(timings=[("lat", [0.003, 8.0])]))
        text = fleet.render_fleet(None, [worker_a, worker_b])
        families = parse_prometheus(text)
        buckets = families["repro_lat_seconds_bucket"]
        # Aggregate window holds all four samples.
        assert buckets[(("le", "0.0005"),)] == 1
        assert buckets[(("le", "0.005"),)] == 3
        assert buckets[(("le", "+Inf"),)] == 4
        assert families["repro_lat_seconds_count"][()] == 4
        assert math.isclose(families["repro_lat_seconds_sum"][()], 8.0064)

    def test_label_escaping_round_trips(self):
        """Quotes, backslashes and newlines in label values survive the trip."""
        nasty = 'he said "hi"\\path\nnewline'
        registry = MetricsRegistry()
        for sample in (0.1, 0.2):
            registry.histogram(f"serve.route_latency.{nasty}").record(sample)
        worker = _snapshot_of(registry)
        text = fleet.render_fleet(None, [worker])
        families = parse_prometheus(text)
        latency = families["repro_serve_route_latency_seconds_count"]
        assert latency[(("route", nasty),)] == 2
        assert latency[(("worker", "0"), ("route", nasty))] == 2

    def test_multi_render_matches_single_render_without_sections(self):
        registry = _registry(counters=[("a", 1)], timings=[("t", [0.1])])
        assert render_prometheus_multi([(registry, {})]) == render_prometheus(registry)

    def test_fleet_meta_counters_present(self):
        text = fleet.render_fleet(None, [_snapshot_of(MetricsRegistry(), span_dropped=3)])
        families = parse_prometheus(text)
        assert families["repro_fleet_processes_total"][()] == 1
        assert families["repro_fleet_span_dropped_total"][()] == 3


class TestChromeTrace:
    def _record(self, name, pid, trace_id="t1", request_id="r1", span_id="s1",
                parent="", ts=100.0, dur=0.5, attrs=None):
        record = {
            "name": name, "path": name, "depth": 0, "duration_s": dur,
            "ok": True, "ts": ts, "pid": pid, "tid": 7,
            "span_id": span_id, "parent_span_id": parent,
            "trace_id": trace_id, "request_id": request_id,
        }
        if attrs:
            record["attrs"] = attrs
        return record

    def test_events_carry_pid_tid_and_ids(self):
        trace = fleet.chrome_trace(
            [self._record("serve.request", pid=10, span_id="root")],
            [_snapshot_of(MetricsRegistry(), pid=20,
                          spans=[self._record("serve.score", pid=20,
                                              span_id="w1", parent="root")])],
        )
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {10, 20}
        worker_slice = next(e for e in slices if e["pid"] == 20)
        assert worker_slice["args"]["parent_span_id"] == "root"
        assert worker_slice["tid"] == 7
        # Complete events place the slice at start = completion - duration, µs.
        assert math.isclose(worker_slice["ts"], (100.0 - 0.5) * 1e6)
        assert math.isclose(worker_slice["dur"], 0.5 * 1e6)
        names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert any("worker 0" in n for n in names)

    def test_filters_narrow_to_one_flow(self):
        records = [
            self._record("a", pid=1, trace_id="t1", request_id="r1", span_id="s1"),
            self._record("b", pid=1, trace_id="t2", request_id="r2", span_id="s2"),
            self._record("bg", pid=1, trace_id="", request_id="", span_id="s3"),
        ]
        by_trace = fleet.chrome_trace(records, trace_id="t1")
        assert [e["name"] for e in by_trace["traceEvents"] if e["ph"] == "X"] == ["a"]
        by_request = fleet.chrome_trace(records, request_id="r2")
        assert [e["name"] for e in by_request["traceEvents"] if e["ph"] == "X"] == ["b"]
        unfiltered = fleet.chrome_trace(records)
        assert len([e for e in unfiltered["traceEvents"] if e["ph"] == "X"]) == 3

    def test_span_dropped_totals_across_fleet(self):
        trace = fleet.chrome_trace(
            [], [_snapshot_of(MetricsRegistry(), span_dropped=2),
                 _snapshot_of(MetricsRegistry(), span_dropped=3)],
        )
        assert trace["metadata"]["span_dropped"] == 5
