"""HTTP front-end on an ephemeral localhost port."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import BatchingEngine, InferenceEngine, make_server
from repro.serving.server import MAX_BODY_BYTES, _Handler

pytestmark = pytest.mark.serving


@pytest.fixture()
def server(engine):
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(server, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}", timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, server, engine):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["users"] == engine.num_users
        assert body["items"] == engine.num_items

    def test_score_matches_engine(self, server, engine):
        status, body = _post(server, "/score", {"users": [0, 1, 2], "items": [3, 4, 5]})
        assert status == 200
        np.testing.assert_allclose(body["scores"], engine.score([0, 1, 2], [3, 4, 5]))

    def test_topn(self, server, engine):
        status, body = _post(server, "/topn", {"user": 0, "k": 5})
        assert status == 200
        assert body["user"] == 0
        assert len(body["items"]) == len(body["scores"]) == 5
        expected_items, expected_scores = engine.top_n(0, k=5)
        assert body["items"] == expected_items.tolist()
        np.testing.assert_allclose(body["scores"], expected_scores)

    def test_onboard_user_and_item(self, server, engine):
        base_users, base_items = engine.num_users, engine.num_items
        status, body = _post(
            server, "/users", {"attributes": {"gender": 0, "age": 2, "occupation": 4}}
        )
        assert status == 201
        assert body == {"user": base_users, "onboarded": 1}

        item_row = engine.bundle.item_attributes[0].tolist()
        status, body = _post(server, "/items", {"attributes": item_row})
        assert status == 201
        assert body == {"item": base_items, "onboarded": 1}

        status, body = _post(server, "/score", {"users": [base_users], "items": [base_items]})
        assert status == 200
        assert np.isfinite(body["scores"][0])

    def test_metrics_snapshot(self, server):
        _post(server, "/score", {"users": [0], "items": [0]})
        status, body = _get(server, "/metrics")
        assert status == 200
        assert {"schema_version", "counters", "spans"} <= set(body)
        assert body["counters"]["serve.requests"] >= 2
        assert any(path.startswith("serve.request") for path in body["spans"])


class TestErrors:
    def test_unknown_path_is_404(self, server):
        status, body = _post(server, "/nope", {"x": 1})
        assert status == 404
        assert "unknown path" in body["error"]

    def test_missing_body_is_400(self, server):
        status, body = _post(server, "/score", {})
        assert status == 400
        assert "users" in body["error"]

    def test_bad_ids_are_400(self, server, engine):
        status, body = _post(
            server, "/score", {"users": [engine.num_users + 5], "items": [0]}
        )
        assert status == 400
        assert "unknown user" in body["error"]

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/score",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_error_counter_increments(self, server):
        _post(server, "/score", {})
        status, body = _get(server, "/metrics")
        assert status == 200
        assert body["counters"]["serve.request_errors"] >= 1

    def test_unexpected_exception_is_json_500_with_request_id(self, server, engine, monkeypatch):
        def boom(users, items):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(engine, "score", boom)
        status, body = _post(server, "/score", {"users": [0], "items": [0]})
        assert status == 500
        assert "engine exploded" in body["error"]
        assert body["request_id"].startswith("req-")
        status, metrics = _get(server, "/metrics")
        assert metrics["counters"]["serve.errors"] == 1
        assert metrics["counters"]["serve.route_errors.score"] == 1


class TestRequestObservability:
    def test_request_id_header_monotonic(self, server):
        request = urllib.request.Request(f"http://127.0.0.1:{server.port}/healthz")
        with urllib.request.urlopen(request, timeout=10) as response:
            first = response.headers["X-Request-ID"]
        with urllib.request.urlopen(request, timeout=10) as response:
            second = response.headers["X-Request-ID"]
        assert first.startswith("req-") and second.startswith("req-")
        assert int(second.split("-")[1]) > int(first.split("-")[1])

    def test_client_error_body_carries_request_id(self, server):
        status, body = _post(server, "/score", {})
        assert status == 400
        assert body["request_id"].startswith("req-")

    def test_healthz_enriched(self, server, engine):
        _post(server, "/score", {"users": [0], "items": [0]})
        _post(server, "/score", {"users": [0], "items": [0]})
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["bundle_fingerprint"] == engine.bundle.fingerprint
        assert len(body["bundle_fingerprint"]) == 12
        assert body["uptime_s"] >= 0.0
        assert 0.0 < body["cache_hit_rate"] <= 0.5  # 1 hit / 2 lookups

    def test_per_route_latency_recorded(self, server):
        _post(server, "/score", {"users": [0], "items": [0]})
        _get(server, "/healthz")
        status, body = _get(server, "/metrics")
        assert status == 200
        timings = body["timings"]
        assert timings["serve.route_latency.score"]["count"] >= 1
        assert timings["serve.route_latency.healthz"]["count"] >= 1


class TestPrometheusEndpoint:
    def _get_text(self, server, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{path}", timeout=10
        ) as response:
            return response.status, response.headers["Content-Type"], response.read().decode("utf-8")

    def test_metrics_prom_is_valid_exposition(self, server):
        from repro.telemetry.export import parse_prometheus

        _post(server, "/score", {"users": [0, 1], "items": [0, 1]})
        _post(server, "/score", {})  # a client error for the error family
        status, content_type, text = self._get_text(server, "/metrics.prom")
        assert status == 200
        assert content_type.startswith("text/plain")
        families = parse_prometheus(text)  # raises on malformed lines
        assert families["repro_serve_requests_total"][()] >= 2
        assert families["repro_serve_route_errors_total"][(("route", "score"),)] >= 1

    def test_route_latency_histogram_families(self, server):
        from repro.telemetry.export import parse_prometheus

        _post(server, "/score", {"users": [0], "items": [0]})
        _, _, text = self._get_text(server, "/metrics.prom")
        families = parse_prometheus(text)
        labels = (("route", "score"),)
        count = families["repro_serve_route_latency_seconds_count"][labels]
        assert count >= 1
        assert families["repro_serve_route_latency_seconds_sum"][labels] > 0.0
        inf_bucket = families["repro_serve_route_latency_seconds_bucket"][labels + (("le", "+Inf"),)]
        assert inf_bucket == count

    def test_counts_round_trip_against_registry(self, server):
        from repro.telemetry.export import parse_prometheus
        from repro.telemetry import metrics as telemetry_metrics

        _post(server, "/score", {"users": [0], "items": [0]})
        _, _, text = self._get_text(server, "/metrics.prom")
        families = parse_prometheus(text)
        live = telemetry_metrics.get_registry().counters()
        assert families["repro_serve_requests_total"][()] == live["serve.requests"]
        assert families["repro_serve_scores_total"][()] == live["serve.scores"]


class TestBatchedEndpoints:
    """The same routes, served through the coalescing queue."""

    @pytest.fixture()
    def batched_server(self, bundle):
        engine = InferenceEngine(bundle)
        batching = BatchingEngine(engine, tick_interval=0.001)
        server = make_server(engine, port=0, batching=batching)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, engine
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_score_parity_through_queue(self, batched_server, bundle):
        server, _engine = batched_server
        reference = InferenceEngine(bundle)
        status, body = _post(server, "/score", {"users": [0, 1, 2], "items": [3, 4, 5]})
        assert status == 200
        np.testing.assert_array_equal(body["scores"], reference.score([0, 1, 2], [3, 4, 5]))

    def test_topn_through_queue(self, batched_server, bundle):
        server, _engine = batched_server
        reference = InferenceEngine(bundle)
        status, body = _post(server, "/topn", {"user": 0, "k": 5})
        assert status == 200
        want_items, want_scores = reference.top_n(0, k=5)
        assert body["items"] == want_items.tolist()
        np.testing.assert_array_equal(body["scores"], want_scores)

    def test_onboarding_through_queue(self, batched_server, engine):
        server, served_engine = batched_server
        base = served_engine.num_users
        status, body = _post(
            server, "/users", {"attributes": {"gender": 0, "age": 2, "occupation": 4}}
        )
        assert status == 201
        assert body == {"user": base, "onboarded": 1}
        status, body = _post(server, "/score", {"users": [base], "items": [0]})
        assert status == 200
        assert np.isfinite(body["scores"][0])

    def test_concurrent_clients_all_answered(self, batched_server, bundle):
        server, _engine = batched_server
        reference = InferenceEngine(bundle)
        results = {}

        def client(worker):
            results[worker] = _post(
                server, "/score", {"users": [worker], "items": [worker + 1]}
            )

        threads = [threading.Thread(target=client, args=(w,)) for w in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 12
        for worker, (status, body) in results.items():
            assert status == 200
            want = reference.score([worker], [worker + 1])[0]
            assert body["scores"][0] == want


class TestShutdownDrain:
    """shutdown() must answer every accepted request before returning."""

    def _make(self, engine, batching=None):
        server = make_server(engine, port=0, batching=batching)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def test_request_issued_mid_shutdown_is_served_not_reset(self, engine, monkeypatch):
        """Regression: the old shutdown returned while a handler was mid-flight,
        so server_close() could reset the connection under the client."""
        original = engine.score
        started = threading.Event()

        def slow_score(users, items):
            started.set()
            time.sleep(0.3)
            return original(users, items)

        monkeypatch.setattr(engine, "score", slow_score)
        server, thread = self._make(engine)
        result = {}

        def client():
            try:
                result["response"] = _post(server, "/score", {"users": [0], "items": [0]})
            except Exception as exc:  # a reset surfaces here
                result["error"] = exc

        client_thread = threading.Thread(target=client)
        client_thread.start()
        assert started.wait(10), "request never reached the engine"
        drained = server.shutdown()
        # The drain guarantee: by the time shutdown() returns, nothing is
        # mid-flight, so closing the socket cannot reset the request.
        assert drained
        assert server.inflight_requests == 0
        server.server_close()
        client_thread.join(timeout=10)
        thread.join(timeout=10)
        assert "error" not in result, f"client connection failed: {result.get('error')}"
        status, body = result["response"]
        assert status == 200
        assert np.isfinite(body["scores"][0])

    def test_shutdown_stops_batching_after_drain(self, engine):
        batching = BatchingEngine(engine, tick_interval=0.001)
        server, thread = self._make(engine, batching=batching)
        status, _ = _post(server, "/score", {"users": [0], "items": [0]})
        assert status == 200
        assert server.shutdown()
        assert not batching.running
        assert server.inflight_requests == 0
        server.server_close()
        thread.join(timeout=10)

    def test_wait_for_drain_times_out_honestly(self, engine, monkeypatch):
        release = threading.Event()
        started = threading.Event()
        original = engine.score

        def stuck_score(users, items):
            started.set()
            release.wait(30)
            return original(users, items)

        monkeypatch.setattr(engine, "score", stuck_score)
        server, thread = self._make(engine)
        client_thread = threading.Thread(
            target=lambda: _post(server, "/score", {"users": [0], "items": [0]})
        )
        client_thread.start()
        assert started.wait(10)
        assert server.inflight_requests == 1
        assert not server.wait_for_drain(timeout=0.1)  # request is genuinely stuck
        release.set()
        assert server.wait_for_drain(timeout=10)
        server.shutdown()
        server.server_close()
        client_thread.join(timeout=10)
        thread.join(timeout=10)


class TestKeepAlive:
    """Several requests on one connection: framing and the wire-speed floor."""

    def _connection(self, server):
        return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)

    def _post(self, conn, path, payload):
        conn.request(
            "POST", path, body=json.dumps(payload), headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def test_unread_body_does_not_desync_the_next_request(self, server, engine):
        """Regression: a 404 sent before the body was read left that body in
        the stream, and the next request was parsed from it (an HTML 400)."""
        conn = self._connection(server)
        try:
            status, _ = self._post(conn, "/nope", {"users": [0], "items": [1]})
            assert status == 404
            status, body = self._post(conn, "/score", {"users": [0], "items": [1]})
            assert status == 200
            assert body["scores"] == engine.score([0], [1]).tolist()
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "framing, status",
        [
            (f"Content-Length: {MAX_BODY_BYTES + 1}", 413),
            ("Content-Length: nine", 400),
            ("Transfer-Encoding: chunked", 400),
        ],
    )
    def test_unskippable_body_closes_the_connection(self, server, framing, status):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(f"POST /score HTTP/1.1\r\nHost: x\r\n{framing}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(65536):  # b"" once the server closes
                reply += chunk
        head = reply.split(b"\r\n\r\n")[0]
        assert head.startswith(f"HTTP/1.1 {status}".encode())
        assert b"Connection: close" in head

    def test_accepted_sockets_set_tcp_nodelay(self, server, monkeypatch):
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        conn = self._connection(server)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
        finally:
            conn.close()
        assert nodelay and all(nodelay)

    def test_keepalive_round_trips_are_not_held_by_nagle(self, server):
        """Headers and body are two writes: with Nagle on, the body waits for
        the client's delayed ACK (>= 40 ms a round trip); with TCP_NODELAY a
        round trip costs ~1 ms."""
        conn = self._connection(server)
        samples = []
        try:
            for round_trip in range(30):
                payload = {"users": [round_trip % 5] * 10, "items": list(range(10))}
                start = time.perf_counter()
                status, _ = self._post(conn, "/score", payload)
                samples.append(time.perf_counter() - start)
                assert status == 200
        finally:
            conn.close()
        assert statistics.median(samples) < 0.010
