"""Request coalescing: the micro-batching core of the serving tier.

Under concurrent load the plain :class:`~repro.serving.engine.InferenceEngine`
serialises every request on its lock and each one pays the full Python
dispatch cost alone — sixteen threads scoring one pair each run sixteen small
numpy pipelines back to back.  :class:`BatchingEngine` turns that workload
into vectorised work: callers *submit* requests into a bounded FIFO queue and
a single drain thread collects everything in flight once per tick, fusing
consecutive ``score`` requests into one :meth:`InferenceEngine.score` call
over the concatenated id arrays.

Draining is *adaptive* by default (``tick_interval=0``): the drain thread
takes whatever is queued the moment it is free, so batches form naturally
from the requests that arrived while the previous batch executed — no
artificial wait is ever added to a request.  A positive ``tick_interval``
instead opens a fixed coalescing window after the first request of a tick,
trading a bounded latency floor for larger fused calls; it exists as a
smoothing knob for bursty open-loop traffic and for deterministic tests that
drive the window with a fake clock.  Under a closed 16-caller load the
adaptive mode is what makes batching *faster* than direct calls — a fixed
window caps throughput at ``batch_size / (window + execute)``.

Semantics are exactly those of the sequential engine:

* **Bitwise parity** — scoring is row-independent (pinned by
  ``tests/serving/test_batching.py``), so the fused call returns bit-for-bit
  the values the per-request calls would have; results are split back by
  request in arrival order.
* **FIFO fairness** — requests are drained and completed in arrival order;
  a top-N or onboarding request acts as a barrier between coalesced runs, so
  every request observes the node set its arrival order implies.
* **Fault isolation** — when a fused call fails, the run is retried
  request-by-request so only the poisoned request carries the error; its
  batchmates still succeed (``serve.batch.fallbacks`` counts these retries).
* **Backpressure** — the queue is bounded; a submit against a full queue is
  *shed* immediately with :class:`EngineOverloadedError` (never silently
  queued) and counted in ``serve.shed``.  The HTTP layer maps this to 429.

Per-tick telemetry: ``serve.batch.ticks`` / ``serve.batch.requests`` /
``serve.batch.coalesced`` / ``serve.batch.fallbacks`` / ``serve.shed``
counters, ``serve.batch.size`` (pairs per fused call) and
``serve.batch.wait`` (queue wait seconds) distributions, and
``serve.batch.queue_depth`` / ``serve.batch.last_size`` gauges.

The clock is injectable (``clock=``) and the drain loop can be driven
manually (``auto_start=False`` + :meth:`drain_once`), which makes coalescing
deterministic under test: enqueue from N threads, tick once, observe one
fused batch.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from time import monotonic
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import events, increment, record_timing, set_gauge, tracing
from ..telemetry.tracing import span
from .engine import InferenceEngine

__all__ = ["BatchingEngine", "EngineOverloadedError"]


class EngineOverloadedError(RuntimeError):
    """Raised on submit when the request queue is full (backpressure shed)."""

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"serving queue full ({queue_depth} requests in flight); request shed"
        )
        self.queue_depth = queue_depth


class _Request:
    """One queued unit of work; ``future`` completes exactly once.

    ``trace`` is the distributed-trace wire triple active on the submitting
    thread — ``(trace_id, parent_span_id, request_id)`` or ``None`` — so the
    drain thread can re-activate the request's identity while executing it
    and engine-side spans/fallbacks stay attributable to the HTTP request.
    """

    __slots__ = ("kind", "payload", "future", "enqueued_at", "pairs", "trace")

    def __init__(self, kind: str, payload: Tuple[Any, ...], enqueued_at: float, pairs: int) -> None:
        self.kind = kind
        self.payload = payload
        self.future: "Future[Any]" = Future()
        self.enqueued_at = enqueued_at
        self.pairs = pairs
        self.trace = tracing.current_trace()


class BatchingEngine:
    """Coalesce concurrent serving requests into per-tick vectorised calls."""

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_pairs: int = 8192,
        max_queue_depth: int = 1024,
        tick_interval: float = 0.0,
        clock: Callable[[], float] = monotonic,
        auto_start: bool = True,
    ) -> None:
        if max_batch_pairs < 1:
            raise ValueError("max_batch_pairs must be positive")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if tick_interval < 0:
            raise ValueError("tick_interval must be non-negative")
        self.engine = engine
        self.max_batch_pairs = max_batch_pairs
        self.max_queue_depth = max_queue_depth
        self.tick_interval = tick_interval
        self._clock = clock
        self._queue: Deque[_Request] = deque()
        self._queued_pairs = 0  # running sum of queued request pairs (O(1) budget checks)
        self._cond = threading.Condition()
        self._stopping = False
        self._shutdown_called = False
        self._thread: Optional[threading.Thread] = None
        self._ticks = 0
        self._requests_drained = 0
        self._coalesced = 0
        self._fallbacks = 0
        self._shed = 0
        self._swaps = 0
        if auto_start:
            self.start()

    # ------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the drain thread (idempotent)."""
        with self._cond:
            if self.running:
                return
            self._stopping = False
            self._shutdown_called = False
            self._thread = threading.Thread(
                target=self._run, name="repro-batching", daemon=True
            )
            self._thread.start()
        events.emit("serve.batching_start", max_queue_depth=self.max_queue_depth)

    def stop(self, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting work and shut the drain thread down.

        With ``drain`` (default) everything already queued is still executed;
        otherwise pending futures fail with :class:`RuntimeError`.

        Safe to call repeatedly and from any thread — including the drain
        thread itself (a done-callback, say): a second call finds no queue and
        no living thread and falls through, and a thread never joins itself.
        """
        with self._cond:
            self._stopping = True
            if not drain:
                pending = list(self._queue)
                self._queue.clear()
                self._queued_pairs = 0
            else:
                pending = []
            self._cond.notify_all()
            # Claim the thread under the lock so concurrent stop() calls
            # cannot both try to join (or see a half-cleared handle).
            thread = self._thread
            self._thread = None
        for request in pending:
            request.future.set_exception(RuntimeError("batching engine stopped"))
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
        events.emit("serve.batching_stop", drained=drain)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Idempotent terminal stop, safe from ``atexit`` and signal handlers.

        Exactly one caller performs the actual :meth:`stop`; every later (or
        re-entrant) call returns immediately.  The claim is a plain attribute
        flip — atomic under the GIL, no lock taken — so the duplicate
        deliveries that happen in practice (atexit after a SIGTERM handler,
        repeated signals, an explicit close racing either) cost nothing and
        cannot deadlock.  The one winning call still acquires the condition
        lock inside :meth:`stop`; trigger it from the serving loop's unwind
        path (as ``serve_forever`` does) rather than from inside a frame that
        already holds it.
        """
        if self._shutdown_called:
            return
        self._shutdown_called = True
        self.stop(drain=drain, timeout=timeout)

    def __enter__(self) -> "BatchingEngine":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ---------------------------------------------------------------- submit
    def _submit(self, kind: str, payload: Tuple[Any, ...], pairs: int) -> "Future[Any]":
        with self._cond:
            if self._stopping:
                raise RuntimeError("batching engine is stopped")
            if len(self._queue) >= self.max_queue_depth:
                self._shed += 1
                increment("serve.shed")
                raise EngineOverloadedError(len(self._queue))
            request = _Request(kind, payload, self._clock(), pairs)
            self._queue.append(request)
            self._queued_pairs += pairs
            # This is the hot path; wake the drain thread only when it can act:
            # on the first queued request (it may be idle-waiting for work) or
            # when the pair budget fills (end the coalescing window early).  A
            # submit landing mid-window would otherwise cost a futex wake and a
            # GIL handoff just for the worker to look at the clock and re-sleep.
            # The queue-depth gauge is refreshed per tick in _take_batch_locked.
            if len(self._queue) == 1 or self._queued_pairs >= self.max_batch_pairs:
                self._cond.notify()
        return request.future

    def submit_score(self, users, items) -> "Future[np.ndarray]":
        """Enqueue a score request; the future resolves to the score array.

        Alignment is validated here (a malformed request must fail fast, not
        poison a fused batch); id-range validation happens at execution time
        inside the engine, isolated per request.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        if users.shape != items.shape:
            raise ValueError("users and items must align")
        return self._submit("score", (users, items), pairs=max(len(users), 1))

    def submit_top_n(self, user: int, k: int = 10, exclude_seen: bool = True) -> "Future[Tuple[np.ndarray, np.ndarray]]":
        return self._submit("topn", (int(user), int(k), bool(exclude_seen)), pairs=1)

    def submit_onboard(self, side: str, attributes: Any) -> "Future[int]":
        if side not in ("user", "item"):
            raise ValueError(f"side must be 'user' or 'item', got {side!r}")
        return self._submit("onboard", (side, attributes), pairs=1)

    def submit_swap(self, engine: InferenceEngine) -> "Future[InferenceEngine]":
        """Enqueue a zero-downtime engine swap; resolves to the *old* engine.

        The swap rides the FIFO queue like any non-score request, so it acts
        as a natural barrier: every request queued before it executes on the
        old engine, every request queued after it on the new one, and no fused
        score call ever spans the boundary — a response can never mix bundles.
        """
        if not isinstance(engine, InferenceEngine):
            raise TypeError(f"swap target must be an InferenceEngine, got {type(engine).__name__}")
        return self._submit("swap", (engine,), pairs=1)

    # ------------------------------------------------------- blocking facade
    def score(self, users, items, timeout: Optional[float] = 60.0) -> np.ndarray:
        """Blocking score through the coalescing queue (engine-compatible)."""
        return self.submit_score(users, items).result(timeout)

    def top_n(
        self, user: int, k: int = 10, exclude_seen: bool = True, timeout: Optional[float] = 60.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.submit_top_n(user, k, exclude_seen).result(timeout)

    def onboard(self, side: str, attributes: Any, timeout: Optional[float] = 60.0) -> int:
        return self.submit_onboard(side, attributes).result(timeout)

    def swap_engine(self, engine: InferenceEngine, timeout: Optional[float] = 60.0) -> InferenceEngine:
        """Blocking hot-swap: returns the displaced engine once the barrier
        has passed (all earlier requests answered from the old bundle)."""
        return self.submit_swap(engine).result(timeout)

    # ------------------------------------------------------------- the ticks
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if self._stopping and not self._queue:
                    return
                if self.tick_interval > 0:
                    # Coalescing window: give in-flight peers a beat to land in
                    # the same tick, unless the batch budget is already full.
                    deadline = monotonic() + self.tick_interval
                    while not self._stopping and self._queued_pairs < self.max_batch_pairs:
                        remaining = deadline - monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                batch = self._take_batch_locked()
            if batch:
                self._execute(batch)

    def _take_batch_locked(self) -> List[_Request]:
        """Pop the next tick's worth of requests (caller holds the lock)."""
        batch: List[_Request] = []
        pairs = 0
        while self._queue:
            if batch and pairs + self._queue[0].pairs > self.max_batch_pairs:
                break
            request = self._queue.popleft()
            batch.append(request)
            pairs += request.pairs
        self._queued_pairs -= pairs
        set_gauge("serve.batch.queue_depth", float(len(self._queue)))
        return batch

    def drain_once(self) -> int:
        """Synchronously execute everything queued right now (manual tick).

        The deterministic test/embedding mode: with ``auto_start=False`` the
        caller owns the tick cadence.  Returns the number of requests served.
        """
        served = 0
        while True:
            with self._cond:
                batch = self._take_batch_locked()
            if not batch:
                return served
            self._execute(batch)
            served += len(batch)

    # -------------------------------------------------------------- execution
    def _execute(self, batch: List[_Request]) -> None:
        now = self._clock()
        self._ticks += 1
        self._requests_drained += len(batch)
        increment("serve.batch.ticks")
        increment("serve.batch.requests", len(batch))
        set_gauge("serve.batch.last_size", float(len(batch)))
        for request in batch:
            record_timing("serve.batch.wait", max(now - request.enqueued_at, 0.0))

        # One tick span covers the whole drain.  A tick belongs to every
        # request it fused: with one distinct trace in the batch the tick
        # span *joins* that trace (shares trace_id, parents to the ingress
        # span); with several it stays trace-free and carries the flows as
        # ``links`` — the standard many-parents batch-span shape.
        traces = [r.trace for r in batch if r.trace is not None]
        distinct = {t[0] for t in traces}
        token = tracing.activate_trace(traces[0]) if len(distinct) == 1 else None
        try:
            with span("serve.batch.tick") as tick:
                if traces:
                    tick.annotate(
                        requests=len(batch),
                        links=[
                            {"trace_id": t[0], "parent_span_id": t[1], "request_id": t[2]}
                            for t in traces
                        ],
                    )
                index = 0
                while index < len(batch):
                    request = batch[index]
                    if request.kind == "score":
                        run = [request]
                        while index + len(run) < len(batch) and batch[index + len(run)].kind == "score":
                            run.append(batch[index + len(run)])
                        self._execute_score_run(run)
                        index += len(run)
                    else:
                        self._execute_single(request)
                        index += 1
        finally:
            if token is not None:
                tracing.deactivate_trace(token)

    def _execute_score_run(self, run: List[_Request]) -> None:
        """One fused ``engine.score`` over a run of consecutive score requests."""
        record_timing("serve.batch.size", float(sum(r.pairs for r in run)))
        if len(run) == 1:
            self._execute_single(run[0])
            return
        self._coalesced += len(run)
        increment("serve.batch.coalesced", len(run))
        users = np.concatenate([r.payload[0] for r in run])
        items = np.concatenate([r.payload[1] for r in run])
        try:
            fused = self.engine.score(users, items)
        except Exception:
            # A poisoned request fails the whole fused call; retry one by one
            # so only the culprit carries the error.
            self._fallbacks += 1
            increment("serve.batch.fallbacks")
            events.emit(
                "serve.batch_fallback",
                requests=len(run),
                request_ids=[r.trace[2] for r in run if r.trace is not None],
            )
            for request in run:
                self._execute_single(request)
            return
        offset = 0
        for request in run:
            count = len(request.payload[0])
            self._complete(request, fused[offset : offset + count])
            offset += count

    def _execute_single(self, request: _Request) -> None:
        # Re-activate the request's own trace so engine-side spans carry its
        # trace_id/request_id even when the tick span stayed trace-free.
        token = tracing.activate_trace(request.trace) if request.trace is not None else None
        try:
            self._execute_single_traced(request)
        finally:
            if token is not None:
                tracing.deactivate_trace(token)

    def _execute_single_traced(self, request: _Request) -> None:
        try:
            if request.kind == "score":
                result: Any = self.engine.score(*request.payload)
            elif request.kind == "topn":
                user, k, exclude_seen = request.payload
                result = self.engine.top_n(user, k=k, exclude_seen=exclude_seen)
            elif request.kind == "onboard":
                side, attributes = request.payload
                add = self.engine.add_user if side == "user" else self.engine.add_item
                result = add(attributes)
            elif request.kind == "swap":
                (new_engine,) = request.payload
                result = self.engine
                self.engine = new_engine
                self._swaps += 1
                increment("serve.swap.count")
                events.emit(
                    "serve.swap",
                    fingerprint=new_engine.bundle.fingerprint,
                    version=new_engine.bundle.version,
                    parent_version=new_engine.bundle.parent_version,
                )
            else:  # pragma: no cover - submit() only produces the kinds above
                raise RuntimeError(f"unknown request kind {request.kind!r}")
        except Exception as exc:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(exc)
            return
        self._complete(request, result)

    @staticmethod
    def _complete(request: _Request, result: Any) -> None:
        if not request.future.set_running_or_notify_cancel():
            return  # caller cancelled while queued; nothing to deliver
        request.future.set_result(result)

    # ------------------------------------------------------------------ state
    def stats(self) -> Dict[str, Any]:
        with self._cond:
            queue_depth = len(self._queue)
        return {
            "running": self.running,
            "queue_depth": queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "max_batch_pairs": self.max_batch_pairs,
            "tick_interval_s": self.tick_interval,
            "ticks": self._ticks,
            "requests": self._requests_drained,
            "coalesced_requests": self._coalesced,
            "fallbacks": self._fallbacks,
            "shed": self._shed,
            "swaps": self._swaps,
        }
