"""Distributed tracing across the pool: one request, one connected trace.

The acceptance gate for the tracing tentpole: a request served by a
2-worker pool must leave a *single* trace — the ingress ``serve.request``
span, the worker-side ``serve.batch.tick`` span and the engine spans under
it all share one ``trace_id`` across at least two PIDs in the exported
Chrome trace JSON — and the fleet-merged ``/metrics.prom`` must report
aggregate counter totals equal to the sum of the per-worker series.
Tracing must also stay bitwise-neutral: traced and untraced scores carry
identical bit patterns.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.serving import BatchingEngine, InferenceEngine, WorkerPool, make_server
from repro.telemetry import disabled as telemetry_disabled
from repro.telemetry import tracing
from repro.telemetry.tracing import new_trace_id, trace_scope

pytestmark = [pytest.mark.serving, pytest.mark.pool, pytest.mark.trace]

POOL_OPTS = dict(workers=2, cache_size=0, tick_interval=0.0, spawn_timeout=300.0)


@pytest.fixture(scope="module")
def traced_server(bundle_dir):
    with WorkerPool(bundle_dir, **POOL_OPTS) as pool:
        server = make_server(pool=pool, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server, pool
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


def _get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=30) as response:
        body = response.read().decode("utf-8")
        return response.status, dict(response.headers), body


def _post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        body = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.headers), body


class TestConnectedTrace:
    def test_pool_request_produces_one_connected_trace(self, traced_server):
        server, pool = traced_server
        status, headers, body = _post(server, "/score", {"users": [0, 1], "items": [1, 0]})
        assert status == 200
        trace_id = headers["X-Trace-ID"]
        request_id = headers["X-Request-ID"]
        assert trace_id

        status, _, raw = _get(server, f"/trace.json?trace_id={trace_id}")
        assert status == 200
        trace = json.loads(raw)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events, "no span events for the request's trace"
        # Every slice belongs to the one trace and carries the request id
        # (the batch tick joined the trace: only one flow was in its batch).
        assert {e["args"]["trace_id"] for e in events} == {trace_id}
        names = {e["name"] for e in events}
        assert "serve.request" in names
        assert any("serve.batch.tick" in name for name in names)
        assert any("serve.score" in name for name in names)
        # ...and the slices span parent + worker processes.
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2
        worker_pids = set(pool.worker_pids())
        assert pids & worker_pids, "no worker-side span joined the trace"
        assert pids - worker_pids, "no parent-side span joined the trace"
        # The request_id filter finds the same flow.
        by_request = [
            e for e in events if e["args"]["request_id"] == request_id
        ]
        assert by_request
        # Metadata rows name each process for Perfetto's process track.
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        named_pids = {e["pid"] for e in metadata if e["name"] == "process_name"}
        assert pids <= named_pids

    def test_trace_parents_link_ingress_to_worker(self, traced_server):
        server, _pool = traced_server
        status, headers, _ = _post(server, "/score", {"users": [2], "items": [3]})
        assert status == 200
        trace_id = headers["X-Trace-ID"]
        _, _, raw = _get(server, f"/trace.json?trace_id={trace_id}")
        events = [e for e in json.loads(raw)["traceEvents"] if e["ph"] == "X"]
        by_span_id = {e["args"]["span_id"]: e for e in events}
        ingress = next(e for e in events if e["name"] == "serve.request")
        tick = next(e for e in events if "serve.batch.tick" in e["name"])
        # The worker-side tick parents (transitively) to the ingress span.
        parent = tick["args"]["parent_span_id"]
        seen = set()
        while parent and parent in by_span_id and parent not in seen:
            seen.add(parent)
            if parent == ingress["args"]["span_id"]:
                break
            parent = by_span_id[parent]["args"]["parent_span_id"]
        assert parent == ingress["args"]["span_id"]


class TestFleetMetrics:
    def test_merged_counters_equal_worker_sums(self, traced_server):
        server, _pool = traced_server
        for i in range(6):
            status, _, _ = _post(server, "/score", {"users": [i % 3], "items": [i % 2]})
            assert status == 200
        status, headers, text = _get(server, "/metrics.prom")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")

        from repro.telemetry.export import parse_prometheus

        families = parse_prometheus(text)
        scores = families["repro_serve_scores_total"]
        aggregate = scores[()]
        per_worker = [
            value for labels, value in scores.items()
            if any(k == "worker" and v not in ("parent",) for k, v in labels)
        ]
        assert len(per_worker) == 2
        assert aggregate == sum(per_worker) >= 6
        # The parent contributes the HTTP-side families to the aggregate too.
        requests = families["repro_serve_requests_total"]
        parent_series = [
            value for labels, value in requests.items()
            if ("worker", "parent") in labels
        ]
        assert parent_series and requests[()] >= parent_series[0]

    def test_trace_json_without_filter_covers_fleet(self, traced_server):
        server, pool = traced_server
        _post(server, "/score", {"users": [0], "items": [0]})
        status, _, raw = _get(server, "/trace.json")
        assert status == 200
        trace = json.loads(raw)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids >= set(pool.worker_pids())
        assert trace["metadata"]["span_dropped"] == 0


class TestBatchTickLinks:
    def test_single_flow_tick_joins_the_trace(self, engine):
        batching = BatchingEngine(engine, auto_start=False)
        wire = (new_trace_id(), "", "req-single")
        with trace_scope(wire):
            future = batching.submit_score([0], [1])
        batching.drain_once()
        np.testing.assert_array_equal(future.result(1), engine.score([0], [1]))
        records = tracing.export_spans()
        tick = next(r for r in records if r["name"] == "serve.batch.tick")
        assert tick["trace_id"] == wire[0]
        assert tick["attrs"]["links"][0]["request_id"] == "req-single"

    def test_multi_flow_tick_links_all_parents(self, engine):
        batching = BatchingEngine(engine, auto_start=False)
        futures = []
        for request_id in ("req-a", "req-b"):
            with trace_scope((new_trace_id(), "", request_id)):
                futures.append(batching.submit_score([0], [1]))
        batching.drain_once()
        for future in futures:
            future.result(1)
        records = tracing.export_spans()
        tick = next(r for r in records if r["name"] == "serve.batch.tick")
        # Two distinct flows: the tick cannot join either, it links both.
        assert tick["trace_id"] == ""
        linked = {link["request_id"] for link in tick["attrs"]["links"]}
        assert linked == {"req-a", "req-b"}

    def test_engine_spans_carry_request_identity(self, engine):
        batching = BatchingEngine(engine, auto_start=False)
        wire = (new_trace_id(), "", "req-attrib")
        with trace_scope(wire):
            batching.submit_top_n(0, k=3)
        batching.drain_once()
        records = tracing.export_spans()
        topn = next(r for r in records if r["name"] == "serve.topn")
        assert topn["trace_id"] == wire[0]
        assert topn["request_id"] == "req-attrib"


class TestBitwiseNeutrality:
    def test_traced_equals_untraced_scores(self, bundle):
        users = [0, 1, 2, 0]
        items = [3, 2, 1, 0]
        with telemetry_disabled():
            untraced = InferenceEngine(bundle, cache_size=0).score(users, items)
        engine = InferenceEngine(bundle, cache_size=0)
        with trace_scope((new_trace_id(), "", "req-det")):
            with tracing.span("serve.request"):
                traced = engine.score(users, items)
        np.testing.assert_array_equal(traced, untraced)
        assert traced.tobytes() == untraced.tobytes()
