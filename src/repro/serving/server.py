"""A dependency-free JSON front-end over :class:`InferenceEngine`.

Built on the stdlib threading ``http.server`` — the engine's lock makes the
handler re-entrant.  When the server is built with a
:class:`~repro.serving.batching.BatchingEngine` (``make_server(...,
batching=...)``, the default for ``repro serve``), the ``/score``, ``/topn``
and onboarding routes submit into the coalescing queue instead of calling the
engine directly: concurrent requests are fused into per-tick vectorised
calls, and a full queue is *shed* — the request is answered immediately with
HTTP 429 (``serve.shed`` counts the sheds) instead of piling onto an engine
that is already behind.  Endpoints:

====== ============= =========================================================
Method Path          Body / response
====== ============= =========================================================
GET    /healthz      ``{"status": "ok", "users": M, "items": N,
                     "bundle_fingerprint": ..., "bundle_version": ...,
                     "bundle_parent_version": ..., "swaps": ...,
                     "last_swap_unix": ..., "uptime_s": ...,
                     "cache_hit_rate": ...}``
GET    /metrics      the full telemetry snapshot (``repro.telemetry.snapshot``)
GET    /metrics.prom the telemetry registry in Prometheus text exposition
                     format — per-route latency histograms, error counters;
                     pool-backed servers serve the *fleet-merged* view
                     (aggregate families + per-worker ``worker="N"`` series)
GET    /trace.json   Chrome trace-event JSON over parent + workers (open in
                     Perfetto); ``?trace_id=`` / ``?request_id=`` narrow it
                     to one request flow
POST   /score        ``{"users": [...], "items": [...]}`` → ``{"scores": [...]}``
POST   /topn         ``{"user": u, "k": 10, "exclude_seen": true}`` →
                     ``{"items": [...], "scores": [...]}``
POST   /users        ``{"attributes": {...} | [multi-hot row]}`` →
                     ``{"user": new_id}`` (201) — live SCS onboarding
POST   /items        symmetric → ``{"item": new_id}`` (201)
====== ============= =========================================================

Request-level observability: every request gets a per-process request id,
echoed as the ``X-Request-ID`` response header and embedded in every error
body, plus a freshly minted distributed trace id (echoed as ``X-Trace-ID``;
see :mod:`repro.telemetry.tracing`) that follows the request through the
batching queue and worker pipes.  Every request runs inside a
``serve.request`` span, bumps ``serve.requests``, and records its latency in
the per-route ``serve.route_latency.<route>`` histogram.  Client errors bump
``serve.request_errors`` plus ``serve.route_errors.<route>``; *unexpected*
handler exceptions are converted to a JSON 500 carrying the request id and
bump ``serve.errors`` — the server never drops the connection on a bug.

Connections are HTTP/1.1 keep-alive on ``TCP_NODELAY`` sockets, so the body
write that follows the headers leaves at once and a round trip costs the
work it does rather than a delayed-ACK wait.  A request body no route read
is skipped before the reply (or, when it cannot be, the connection closes),
so the next request on the connection is never parsed from a stale body.

Shutdown is *draining*: the server counts in-flight requests from the moment
a connection is accepted, :meth:`ServingHTTPServer.shutdown` blocks until
every accepted request has been answered (then stops the batching engine or
worker pool, if any), and only afterwards should the socket be closed — a
request issued mid-shutdown is served, never reset.

With ``repro serve --workers N`` the server fronts a
:class:`~repro.serving.workers.WorkerPool` instead of an in-process engine:
scoring and onboarding dispatch to N processes over mmap-shared bundle state,
``/healthz`` grows a ``workers`` section (per-worker pid, liveness,
responsiveness, outstanding depth, bundle identity) and the pool's
``serve.pool.*`` counters/gauges surface through ``/metrics.prom``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..telemetry import get_registry, increment, record_timing, snapshot, span, tracing
from ..telemetry.export import chrome_trace, render_fleet, render_prometheus
from .batching import BatchingEngine, EngineOverloadedError
from .engine import InferenceEngine
from .workers import PoolStoppedError, WorkerCrashedError, WorkerPool

__all__ = ["ServingHTTPServer", "make_server", "serve_forever"]

MAX_BODY_BYTES = 8 * 1024 * 1024


class _RequestError(Exception):
    """A client error carrying an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    server: "ServingHTTPServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a keep-alive reply must not wait
    # on Nagle's algorithm for the client's delayed ACK (~40 ms a round trip).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        payload: Union[Dict[str, Any], str],
        request_id: str = "",
        trace_id: str = "",
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id:
            self.send_header("X-Request-ID", request_id)
        if trace_id:
            self.send_header("X-Trace-ID", trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _skip_unread_body(self) -> None:
        """Consume a request body no route read, so the next request on this
        keep-alive connection is parsed from its own first byte; a body that
        cannot be skipped safely closes the connection instead."""
        if self._body_read:
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if self.headers.get("Transfer-Encoding") or not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
        elif length:
            self.rfile.read(length)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _RequestError(400, "request body required")
        if length > MAX_BODY_BYTES:
            raise _RequestError(413, "request body too large")
        self._body_read = True
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _RequestError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _RequestError(400, "JSON body must be an object")
        return payload

    def _dispatch(self, handler, route: str = "unknown") -> None:
        self._body_read = False
        request_id = self.server.next_request_id()
        increment("serve.requests")
        started = time.perf_counter()
        # Ingress is where the distributed trace is minted: everything this
        # request touches downstream — the batching queue, worker pipes,
        # engine spans in other processes — inherits this identity.
        trace_id = tracing.new_trace_id()
        with tracing.trace_scope((trace_id, "", request_id)), span("serve.request") as request_span:
            request_span.annotate(route=route)
            try:
                status, payload = handler()
            except _RequestError as exc:
                increment("serve.request_errors")
                status, payload = exc.status, {"error": str(exc), "request_id": request_id}
            except EngineOverloadedError as exc:
                # Backpressure shed: the queue was full at submit time.  The
                # 429 is immediate — the client should back off and retry.
                increment("serve.request_errors")
                status = 429
                payload = {"error": str(exc), "request_id": request_id, "retry": True}
            except (WorkerCrashedError, PoolStoppedError) as exc:
                # The worker died mid-request (after the pool's own retry) or
                # the pool is draining: retryable from the client's side.
                increment("serve.request_errors")
                status = 503
                payload = {"error": str(exc), "request_id": request_id, "retry": True}
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                increment("serve.request_errors")
                status, payload = 400, {"error": str(exc), "request_id": request_id}
            except Exception as exc:  # unexpected bug: JSON 500, never a dropped socket
                increment("serve.errors")
                status = 500
                payload = {
                    "error": f"internal error: {type(exc).__name__}: {exc}",
                    "request_id": request_id,
                }
        record_timing(f"serve.route_latency.{route}", time.perf_counter() - started)
        if status >= 400:
            increment(f"serve.route_errors.{route}")
        self._skip_unread_body()
        self._reply(status, payload, request_id=request_id, trace_id=trace_id)

    # ------------------------------------------------------------------ routes
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        routes = {
            "/healthz": self._get_healthz,
            "/metrics": self._get_metrics,
            "/metrics.prom": self._get_metrics_prom,
            "/trace.json": self._get_trace_json,
        }
        path = self.path.split("?")[0]
        handler = routes.get(path)
        if handler is None:
            self._dispatch(lambda: (404, {"error": f"unknown path {self.path!r}"}))
        else:
            self._dispatch(handler, route=path.lstrip("/").replace(".", "_"))

    def do_POST(self) -> None:  # noqa: N802
        routes = {
            "/score": self._post_score,
            "/topn": self._post_topn,
            "/users": lambda: self._post_onboard("user"),
            "/items": lambda: self._post_onboard("item"),
        }
        path = self.path.split("?")[0]
        handler = routes.get(path)
        if handler is None:
            self._dispatch(lambda: (404, {"error": f"unknown path {self.path!r}"}))
        else:
            self._dispatch(handler, route=path.lstrip("/"))

    def _get_healthz(self) -> Tuple[int, Dict[str, Any]]:
        pool = self.server.pool
        if pool is not None:
            health = pool.healthz()
            degraded = health["healthy_workers"] < health["num_workers"]
            return 200, {
                "status": "degraded" if degraded else "ok",
                **health,
                **self.server.swap_state(),
            }
        stats = self.server.engine.stats()
        return 200, {"status": "ok", **stats, **self.server.swap_state()}

    def _get_metrics(self) -> Tuple[int, Dict[str, Any]]:
        return 200, snapshot(note="serve.metrics")

    def _get_metrics_prom(self) -> Tuple[int, str]:
        pool = self.server.pool
        if pool is not None:
            return 200, render_fleet(get_registry(), pool.collect_telemetry())
        return 200, render_prometheus()

    def _get_trace_json(self) -> Tuple[int, Dict[str, Any]]:
        """Chrome trace-event JSON over the whole fleet (Perfetto-loadable).

        Optional ``?trace_id=`` / ``?request_id=`` query parameters narrow
        the timeline to one request flow.
        """
        query = parse_qs(urlparse(self.path).query)
        trace_id = query.get("trace_id", [None])[0]
        request_id = query.get("request_id", [None])[0]
        pool = self.server.pool
        worker_snaps = pool.collect_telemetry() if pool is not None else []
        return 200, chrome_trace(
            tracing.export_spans(), worker_snaps, trace_id=trace_id, request_id=request_id
        )

    def _post_score(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_json()
        if "users" not in body or "items" not in body:
            raise _RequestError(400, "body must contain 'users' and 'items' id arrays")
        backend = self.server.pool or self.server.batching or self.server.engine
        scores = backend.score(body["users"], body["items"])
        return 200, {"scores": scores.tolist()}

    def _post_topn(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_json()
        if "user" not in body:
            raise _RequestError(400, "body must contain 'user'")
        backend = self.server.pool or self.server.batching or self.server.engine
        items, scores = backend.top_n(
            int(body["user"]),
            k=int(body.get("k", 10)),
            exclude_seen=bool(body.get("exclude_seen", True)),
        )
        return 200, {"user": int(body["user"]), "items": items.tolist(), "scores": scores.tolist()}

    def _post_onboard(self, side: str) -> Tuple[int, Dict[str, Any]]:
        body = self._read_json()
        if "attributes" not in body:
            raise _RequestError(400, "body must contain 'attributes'")
        pool = self.server.pool
        if pool is not None:
            add = pool.add_user if side == "user" else pool.add_item
            new_id = add(body["attributes"])
            return 201, {side: new_id, "onboarded": pool.onboarded(side)}
        engine = self.server.engine
        if self.server.batching is not None:
            new_id = self.server.batching.onboard(side, body["attributes"])
        else:
            add = engine.add_user if side == "user" else engine.add_item
            new_id = add(body["attributes"])
        return 201, {side: new_id, "onboarded": engine.onboarded(side)}


class ServingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one engine (optionally coalescing)."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        engine: Optional[InferenceEngine] = None,
        verbose: bool = False,
        batching: Optional[BatchingEngine] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if engine is None and pool is None:
            raise ValueError("a server needs an engine or a worker pool")
        if pool is not None and batching is not None:
            raise ValueError(
                "pool and batching are mutually exclusive — each pool worker "
                "runs its own in-process batching engine"
            )
        super().__init__(address, _Handler)
        self.engine = engine
        self.batching = batching
        self.pool = pool
        self.verbose = verbose
        self._request_counter = itertools.count(1)
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._swaps = 0
        self._last_swap_unix: Optional[float] = None

    # -------------------------------------------------------------- hot swap
    def swap_engine(self, engine: InferenceEngine) -> InferenceEngine:
        """Atomically replace the served engine with zero downtime.

        With a batching engine attached the swap goes through its FIFO queue
        (requests already queued finish on the old bundle, nothing is dropped
        and no fused call mixes bundles); the handler-visible ``self.engine``
        is then repointed — handlers read it once per request, so every
        request observes exactly one engine.  Returns the displaced engine.
        """
        if self.pool is not None:
            raise RuntimeError(
                "a pool-backed server swaps by bundle path; use swap_bundle_path()"
            )
        previous = self.engine
        if self.batching is not None:
            previous = self.batching.swap_engine(engine)
        else:
            increment("serve.swap.count")
        self.engine = engine
        self._swaps += 1
        self._last_swap_unix = time.time()
        return previous

    def swap_bundle_path(self, path, validate_pairs: int = 32) -> Dict[str, Any]:
        """Hot-swap a pool-backed server onto the bundle directory at ``path``."""
        if self.pool is None:
            raise RuntimeError("swap_bundle_path requires a pool-backed server")
        info = self.pool.swap_bundle_path(path, validate_pairs=validate_pairs)
        self._swaps += 1
        self._last_swap_unix = time.time()
        return info

    def swap_state(self) -> Dict[str, Any]:
        """Swap history surfaced in ``/healthz``."""
        return {"swaps": self._swaps, "last_swap_unix": self._last_swap_unix}

    def next_request_id(self) -> str:
        """Per-process request id (``itertools.count`` is atomic under the GIL)."""
        return f"req-{next(self._request_counter):08d}"

    @property
    def port(self) -> int:
        return self.server_address[1]

    # ------------------------------------------------------- draining shutdown
    @property
    def inflight_requests(self) -> int:
        """Accepted connections whose handler has not finished yet."""
        with self._inflight_cond:
            return self._inflight

    def process_request(self, request, client_address) -> None:
        # Count the request from the instant it is accepted — before the
        # handler thread even exists — so shutdown() can never miss it.
        with self._inflight_cond:
            self._inflight += 1
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def wait_for_drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has been answered."""
        with self._inflight_cond:
            return self._inflight_cond.wait_for(lambda: self._inflight == 0, timeout)

    def shutdown(self, drain_timeout: Optional[float] = 10.0) -> bool:  # type: ignore[override]
        """Stop the serve loop, then drain: block until in-flight requests
        finish and the batching queue (if any) is empty.  Returns whether the
        drain completed within ``drain_timeout`` — only then is
        ``server_close()`` guaranteed not to reset a live request."""
        super().shutdown()
        drained = self.wait_for_drain(drain_timeout)
        if self.batching is not None:
            self.batching.shutdown(drain=True)
        if self.pool is not None:
            self.pool.shutdown(drain=True)
        return drained


def make_server(
    engine: Optional[InferenceEngine] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    batching: Optional[BatchingEngine] = None,
    pool: Optional[WorkerPool] = None,
) -> ServingHTTPServer:
    """Bind a server (``port=0`` → ephemeral) without starting its loop.

    Pass a started :class:`BatchingEngine` wrapping ``engine`` to serve the
    scoring routes through the coalescing queue, or a :class:`WorkerPool` to
    serve them from N processes over mmap-shared bundle state; the server
    takes ownership of either and shuts it down with the socket.
    """
    return ServingHTTPServer(
        (host, port), engine, verbose=verbose, batching=batching, pool=pool
    )


def serve_forever(server: ServingHTTPServer) -> None:
    """Run until interrupted; drains in-flight requests, always releases the
    socket."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # The loop has already exited here, so don't call shutdown() (it would
        # deadlock waiting for the loop) — just drain before closing.
        server.wait_for_drain(10.0)
        if server.batching is not None:
            server.batching.shutdown(drain=True)
        if server.pool is not None:
            server.pool.shutdown(drain=True)
        server.server_close()
