"""Multi-process serving: a worker pool over mmap-shared bundle state.

One Python process cannot scale the serving tier past a single core — the
GIL serialises every request no matter how many threads the HTTP server
spawns, and :class:`~repro.serving.batching.BatchingEngine` can only convert
concurrency into *larger* calls, not more cores.  :class:`WorkerPool` scales
out instead: N ``spawn``-ed worker processes, each running its own
:class:`~repro.serving.engine.InferenceEngine` + ``BatchingEngine`` pair, all
of them built from :func:`~repro.serving.mapped.open_bundle_mapped` so the
heavy state — attribute/preference matrices, neighbour indices, raw and
refined embedding caches, candidate-pool graphs — is *one* set of read-only
pages in the page cache, mapped into every worker.  Memory grows with the
per-worker heap (model parameters, caches), not with N copies of the bundle.

Semantics, in order of importance:

* **Bitwise parity** — mapped arrays are materialised through a donor engine
  (so they equal any engine's own derivation bit for bit) and scoring is
  batch-composition invariant, so a pooled response carries exactly the bit
  pattern the single-process engine would have produced, at any worker count.
* **Onboarding broadcast** — ``add_user``/``add_item`` go to *every* worker
  behind a sequence-numbered barrier: the broadcast is sent to all workers
  under the one dispatch lock, so each request is dispatched either entirely
  before it (and sees the old node set on every worker) or entirely after it
  (and sees the new one); per-worker pipes are FIFO, so no worker can observe
  the operations out of order.  All workers must agree on the assigned id.
* **Fault isolation** — a crashed worker is reaped and respawned without
  touching its siblings: their in-flight requests keep running, the dead
  worker's read-only requests (score/top-N) are transparently re-dispatched,
  and the replacement replays the sequence-numbered state log (onboards since
  the last swap, against the current bundle path) before it takes traffic, so
  it converges to the exact node set its siblings hold.
* **Hot swap** — :meth:`swap_bundle_path` validates the candidate bundle once
  in the parent (deterministic probe — all workers would agree), then
  broadcasts it: each worker opens the new bundle mapped *off-path*, probes
  it, and installs it through its batching queue's FIFO swap barrier, so no
  request is dropped and no response mixes bundles.

Dispatch picks the worker with the fewest outstanding requests (round-robin
on ties).  Telemetry: ``serve.pool.dispatch`` (pick+send latency),
``serve.pool.requests`` / ``serve.pool.retries`` / ``serve.pool.respawns`` /
``serve.pool.broadcasts`` counters, and ``serve.pool.depth.<i>`` per-worker
outstanding-request gauges.

Everything here is stdlib (``multiprocessing`` spawn context + pipes +
threads); no third-party process or RPC machinery.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..telemetry import events, increment, record_timing, set_gauge, span, tracing
from ..telemetry.export import worker_snapshot
from .batching import BatchingEngine, EngineOverloadedError
from .engine import DEFAULT_CACHE_SIZE

__all__ = ["WorkerPool", "WorkerCrashedError", "PoolStoppedError"]

PathLike = Union[str, Path]

#: read-only request kinds that are safe to re-dispatch after a worker crash
_RETRYABLE = ("score", "topn", "healthz")

#: exception types reconstructed by name on the parent side
_WIRE_EXCEPTIONS = {
    "IndexError": IndexError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "EngineOverloadedError": EngineOverloadedError,
}


class WorkerCrashedError(RuntimeError):
    """The worker holding this request died before answering it."""


class PoolStoppedError(RuntimeError):
    """The pool is shut down (or shutting down) and accepts no new work."""


def _encode_exc(exc: BaseException) -> Tuple[str, str]:
    return (type(exc).__name__, str(exc))


def _decode_exc(payload: Tuple[str, str]) -> BaseException:
    name, message = payload
    return _WIRE_EXCEPTIONS.get(name, RuntimeError)(message)


# --------------------------------------------------------------------- worker
def _worker_main(worker_id: int, bundle_path: str, conn, options: Dict[str, Any]) -> None:
    """Worker process entry point: serve requests from ``conn`` until told to stop.

    The worker opens the bundle **mapped, without materialising** — only the
    pool parent writes mapped state, so N workers never race on the files —
    and answers requests through its own in-process ``BatchingEngine`` (the
    reader thread submits, done-callbacks reply), which keeps single-worker
    pools exactly as capable of request coalescing as PR 6's engine was.
    """
    from .engine import InferenceEngine
    from .mapped import open_bundle_mapped

    send_lock = threading.Lock()

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # parent gone; nothing to report to
                pass

    try:
        bundle = open_bundle_mapped(bundle_path, materialise=False)
        engine = InferenceEngine(
            bundle,
            cache_size=options["cache_size"],
            batch_size=options["batch_size"],
        )
        batching = BatchingEngine(
            engine,
            max_batch_pairs=options["max_batch_pairs"],
            max_queue_depth=options["max_queue_depth"],
            tick_interval=options["tick_interval"],
        )
    except BaseException as exc:  # startup failure: tell the parent why
        send(("fatal", _encode_exc(exc)))
        return
    send(("ready", os.getpid(), bundle.fingerprint, bundle.version))

    last_seq = 0
    drain = True

    def reply_when_done(req_id: int, future: "Future[Any]") -> None:
        def _done(f: "Future[Any]") -> None:
            try:
                send(("res", req_id, True, f.result()))
            except BaseException as exc:
                send(("res", req_id, False, _encode_exc(exc)))

        future.add_done_callback(_done)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind, req_id = message[0], message[1]
            if kind == "stop":
                drain = bool(message[2])
                break
            # Every request envelope carries the distributed-trace wire triple
            # at slot 2 (``None`` when the parent had no trace active); it is
            # activated around the batching submit so worker-side spans join
            # the originating request's trace.
            trace = message[2]
            trace_token = tracing.activate_trace(trace) if trace is not None else None
            try:
                if kind == "score":
                    users, items = message[3], message[4]
                    reply_when_done(req_id, batching.submit_score(users, items))
                elif kind == "topn":
                    user, k, exclude_seen = message[3], message[4], message[5]
                    reply_when_done(req_id, batching.submit_top_n(user, k, exclude_seen))
                elif kind == "telemetry":
                    max_spans = int(message[3])
                    send(("res", req_id, True, worker_snapshot(max_spans=max_spans)))
                elif kind == "onboard":
                    seq, side, attributes = message[3], message[4], message[5]
                    if seq <= last_seq:
                        raise RuntimeError(
                            f"worker {worker_id}: out-of-order state seq {seq} "
                            f"(already at {last_seq})"
                        )
                    last_seq = seq
                    reply_when_done(req_id, batching.submit_onboard(side, attributes))
                elif kind == "swap":
                    seq, path = message[3], message[4]
                    if seq <= last_seq:
                        raise RuntimeError(
                            f"worker {worker_id}: out-of-order state seq {seq} "
                            f"(already at {last_seq})"
                        )
                    last_seq = seq
                    # Remap + probe off-path: in-flight batched requests keep
                    # draining on the old engine while this builds; the actual
                    # switch rides the batching queue's FIFO swap barrier.
                    from ..live.swap import validate_engine

                    new_bundle = open_bundle_mapped(path, materialise=False)
                    new_engine = InferenceEngine(
                        new_bundle,
                        cache_size=options["cache_size"],
                        batch_size=options["batch_size"],
                    )
                    validate_engine(new_engine)
                    swap_future = batching.submit_swap(new_engine)
                    info = {
                        "fingerprint": new_bundle.fingerprint,
                        "version": new_bundle.version,
                        "parent_version": new_bundle.parent_version,
                    }

                    def _swapped(f, req_id=req_id, info=info):
                        try:
                            f.result()
                            send(("res", req_id, True, info))
                        except BaseException as exc:
                            send(("res", req_id, False, _encode_exc(exc)))

                    swap_future.add_done_callback(_swapped)
                elif kind == "healthz":
                    payload = {
                        "pid": os.getpid(),
                        "bundle_fingerprint": batching.engine.bundle.fingerprint,
                        "bundle_version": batching.engine.bundle.version,
                        "users": batching.engine.num_users,
                        "items": batching.engine.num_items,
                        "onboarded_users": batching.engine.onboarded("user"),
                        "onboarded_items": batching.engine.onboarded("item"),
                        "queue_depth": batching.stats()["queue_depth"],
                        "state_seq": last_seq,
                    }
                    send(("res", req_id, True, payload))
                else:
                    raise RuntimeError(f"unknown request kind {kind!r}")
            except BaseException as exc:
                send(("res", req_id, False, _encode_exc(exc)))
            finally:
                if trace_token is not None:
                    tracing.deactivate_trace(trace_token)
    finally:
        batching.shutdown(drain=drain)
        send(("bye", worker_id))
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------- the parent
class _Pending:
    """A dispatched request the parent is waiting on.

    ``trace`` snapshots the dispatching thread's distributed-trace wire
    triple at construction; it rides slot 2 of the pipe envelope so the
    worker's spans join the originating request's trace.
    """

    __slots__ = ("kind", "payload", "future", "worker_index", "retries",
                 "broadcast", "trace")

    def __init__(self, kind: str, payload: Tuple[Any, ...], worker_index: int) -> None:
        self.kind = kind
        self.payload = payload
        self.future: "Future[Any]" = Future()
        self.worker_index = worker_index
        self.retries = 0
        self.broadcast = False
        self.trace = tracing.current_trace()


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("index", "generation", "process", "conn", "pid",
                 "fingerprint", "version", "outstanding", "receiver")

    def __init__(self, index: int, generation: int, process, conn, pid: int,
                 fingerprint: str, version: int) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.pid = pid
        self.fingerprint = fingerprint
        self.version = version
        self.outstanding = 0
        self.receiver: Optional[threading.Thread] = None


class WorkerPool:
    """N serving processes over one mmap-shared bundle, one dispatch front."""

    def __init__(
        self,
        bundle_path: PathLike,
        workers: int = 2,
        cache_size: int = DEFAULT_CACHE_SIZE,
        batch_size: int = 2048,
        max_batch_pairs: int = 8192,
        max_queue_depth: int = 1024,
        tick_interval: float = 0.0,
        request_timeout: float = 60.0,
        spawn_timeout: float = 120.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        from .mapped import materialise_mapped

        self.bundle_path = Path(bundle_path)
        self.num_workers = workers
        self.request_timeout = request_timeout
        self.spawn_timeout = spawn_timeout
        self._options = {
            "cache_size": cache_size,
            "batch_size": batch_size,
            "max_batch_pairs": max_batch_pairs,
            "max_queue_depth": max_queue_depth,
            "tick_interval": tick_interval,
        }
        self._ctx = multiprocessing.get_context("spawn")
        self._cond = threading.Condition()
        self._workers: List[Optional[_Worker]] = [None] * workers
        self._pending: Dict[int, _Pending] = {}
        self._req_counter = 0
        self._rr_counter = 0
        self._seq = 0
        # Onboards since the last swap, in seq order; a respawned worker
        # replays these against the current bundle path to converge.
        self._state_log: List[Dict[str, Any]] = []
        self._swap_epoch = 0
        self._last_swap_seq = 0
        self._generation = 0
        self._closed = False
        self._shutdown_called = False
        self._respawns = 0
        self._dispatched = 0
        self._retried = 0
        self._broadcasts = 0

        # Only the parent writes mapped state; workers open it read-only.
        with span("serve.pool.materialise"):
            materialise_mapped(self.bundle_path)
        try:
            for index in range(workers):
                worker = self._spawn(index, str(self.bundle_path))
                with self._cond:
                    self._register_locked(worker)
        except BaseException:
            self.shutdown(drain=False, timeout=5.0)
            raise
        events.emit("serve.pool_start", workers=workers, bundle=str(self.bundle_path))

    # ------------------------------------------------------------- spawn/reap
    def _spawn(self, index: int, bundle_path: str) -> _Worker:
        """Start one worker and wait for its ready handshake (no lock held)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, bundle_path, child_conn, self._options),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        with self._cond:
            self._generation += 1
            generation = self._generation
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.spawn_timeout):
            process.terminate()
            raise RuntimeError(f"worker {index} did not come up within {self.spawn_timeout}s")
        message = parent_conn.recv()
        if message[0] == "fatal":
            process.join(5.0)
            raise _decode_exc(message[1])
        assert message[0] == "ready"
        _, pid, fingerprint, version = message
        return _Worker(index, generation, process, parent_conn, pid, fingerprint, version)

    def _register_locked(self, worker: _Worker) -> None:
        """Install a handshaken worker into its slot and start its receiver."""
        self._workers[worker.index] = worker
        set_gauge(f"serve.pool.depth.{worker.index}", 0.0)
        worker.receiver = threading.Thread(
            target=self._receive_loop, args=(worker,),
            name=f"repro-pool-recv-{worker.index}", daemon=True,
        )
        worker.receiver.start()
        self._cond.notify_all()

    def _replay(self, worker: _Worker, entries: List[Dict[str, Any]],
                swap_to: Optional[Tuple[int, str]]) -> None:
        """Synchronously drive state operations on a not-yet-registered worker."""
        plan: List[Tuple[Any, ...]] = []
        if swap_to is not None:
            swap_seq, swap_path = swap_to
            plan.append(("swap", -1, None, swap_seq, swap_path))
        for entry in entries:
            if entry["status"] == "failed":
                continue
            plan.append(("onboard", -1, None, entry["seq"], entry["side"], entry["attributes"]))
        for message in plan:
            worker.conn.send(message)
            if not worker.conn.poll(self.request_timeout):
                raise RuntimeError(f"worker {worker.index} stalled during state replay")
            reply = worker.conn.recv()
            if reply[0] != "res" or not reply[2]:
                raise RuntimeError(
                    f"worker {worker.index} failed state replay: "
                    f"{reply[3] if reply[0] == 'res' else reply!r}"
                )

    def _respawn(self, index: int) -> None:
        """Bring a replacement up, replay state, and register it atomically.

        The replacement is handshaken and bulk-replayed *outside* the dispatch
        lock (slow), then a catch-up loop replays whatever broadcasts landed
        meanwhile; the final iteration finds nothing new **while holding the
        lock** and registers the worker in that same critical section, so no
        broadcast can ever land in the gap.
        """
        with self._cond:
            if self._closed:
                return
            snap_path = str(self.bundle_path)
            snap_epoch = self._swap_epoch
            snap_entries = list(self._state_log)
        try:
            worker = self._spawn(index, snap_path)
            self._replay(worker, snap_entries, swap_to=None)
            replayed_seq = snap_entries[-1]["seq"] if snap_entries else 0
            while True:
                with self._cond:
                    if self._closed:
                        try:
                            worker.conn.send(("stop", None, True))
                        except (BrokenPipeError, OSError):
                            pass
                        worker.process.join(5.0)
                        return
                    if self._swap_epoch != snap_epoch:
                        snap_epoch = self._swap_epoch
                        plan_swap = (self._last_swap_seq, str(self.bundle_path))
                        plan_entries = list(self._state_log)
                    else:
                        plan_swap = None
                        plan_entries = [e for e in self._state_log if e["seq"] > replayed_seq]
                    if plan_swap is None and not plan_entries:
                        self._register_locked(worker)
                        return
                self._replay(worker, plan_entries, swap_to=plan_swap)
                if plan_entries:
                    replayed_seq = plan_entries[-1]["seq"]
                elif plan_swap is not None:
                    replayed_seq = plan_swap[0]
        except BaseException as exc:
            events.emit("serve.pool_respawn_failed", worker=index, error=str(exc))
            raise

    def _receive_loop(self, worker: _Worker) -> None:
        """Per-worker reply pump; on EOF, reap + respawn."""
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "bye":
                break
            if message[0] != "res":
                continue
            _, req_id, ok, value = message
            with self._cond:
                pending = self._pending.pop(req_id, None)
                worker.outstanding -= 1
                set_gauge(f"serve.pool.depth.{worker.index}", float(worker.outstanding))
                self._cond.notify_all()
            if pending is None:
                continue
            if ok:
                pending.future.set_result(value)
            else:
                pending.future.set_exception(_decode_exc(value))
        self._on_worker_exit(worker)

    def _on_worker_exit(self, worker: _Worker) -> None:
        with self._cond:
            current = self._workers[worker.index]
            planned = self._closed or current is None or current.generation != worker.generation
            if not planned:
                self._workers[worker.index] = None
            orphans = [
                (req_id, pending)
                for req_id, pending in self._pending.items()
                if pending.worker_index == worker.index and not planned
            ]
            for req_id, _ in orphans:
                del self._pending[req_id]
            set_gauge(f"serve.pool.depth.{worker.index}", 0.0)
            self._cond.notify_all()
        worker.process.join(5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(5.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        if planned:
            return
        events.emit(
            "serve.pool_worker_exit",
            worker=worker.index,
            pid=worker.pid,
            exitcode=worker.process.exitcode,
            orphaned=len(orphans),
        )
        # Fault isolation: only this worker's requests are affected, and the
        # read-only ones are not even that — they re-dispatch to a sibling.
        for req_id, pending in orphans:
            if pending.kind in _RETRYABLE and pending.retries < 2 and not pending.broadcast:
                pending.retries += 1
                self._retried += 1
                increment("serve.pool.retries")
                try:
                    # wait=False: never park the reaper thread waiting for a
                    # sibling — if none is live right now, fail the request
                    # and get on with the respawn.
                    self._dispatch_pending(pending, exclude=worker.index, wait=False)
                    continue
                except BaseException:
                    pass
            pending.future.set_exception(
                WorkerCrashedError(
                    f"worker {worker.index} (pid {worker.pid}) died with "
                    f"exitcode {worker.process.exitcode} while handling this request"
                )
            )
        self._respawns += 1
        increment("serve.pool.respawns")
        try:
            self._respawn(worker.index)
        except BaseException:
            # Already reported via serve.pool_respawn_failed; the slot stays
            # empty and healthz shows it down.  Siblings keep serving.
            pass

    # --------------------------------------------------------------- dispatch
    def _pick_locked(self, exclude: Optional[int] = None, wait: bool = True) -> _Worker:
        """Least-outstanding live worker, round-robin on ties (lock held)."""
        deadline = time.monotonic() + self.request_timeout
        while True:
            if self._closed:
                raise PoolStoppedError("worker pool is shut down")
            candidates = [
                w for w in self._workers
                if w is not None and (exclude is None or w.index != exclude)
            ]
            if candidates:
                best = min(w.outstanding for w in candidates)
                tied = [w for w in candidates if w.outstanding == best]
                worker = tied[self._rr_counter % len(tied)]
                self._rr_counter += 1
                return worker
            remaining = deadline - time.monotonic()
            if not wait or remaining <= 0:
                raise PoolStoppedError("no live workers available")
            self._cond.wait(remaining)

    def _send_locked(self, worker: _Worker, req_id: int, pending: _Pending) -> None:
        self._pending[req_id] = pending
        pending.worker_index = worker.index
        worker.outstanding += 1
        set_gauge(f"serve.pool.depth.{worker.index}", float(worker.outstanding))
        worker.conn.send((pending.kind, req_id, pending.trace) + pending.payload)

    def _dispatch_pending(self, pending: _Pending, exclude: Optional[int] = None,
                          wait: bool = True) -> None:
        started = time.perf_counter()
        with self._cond:
            worker = self._pick_locked(exclude, wait=wait)
            self._req_counter += 1
            self._dispatched += 1
            self._send_locked(worker, self._req_counter, pending)
        record_timing("serve.pool.dispatch", time.perf_counter() - started)
        increment("serve.pool.requests")

    def _dispatch(self, kind: str, payload: Tuple[Any, ...]) -> "Future[Any]":
        pending = _Pending(kind, payload, worker_index=-1)
        self._dispatch_pending(pending)
        return pending.future

    def _dispatch_to(self, index: int, kind: str, payload: Tuple[Any, ...]) -> "Future[Any]":
        pending = _Pending(kind, payload, worker_index=index)
        started = time.perf_counter()
        with self._cond:
            worker = self._workers[index]
            if worker is None:
                raise WorkerCrashedError(f"worker {index} is down (respawn in progress)")
            self._req_counter += 1
            self._dispatched += 1
            self._send_locked(worker, self._req_counter, pending)
        record_timing("serve.pool.dispatch", time.perf_counter() - started)
        increment("serve.pool.requests")
        return pending.future

    # -------------------------------------------------------------- broadcast
    def _broadcast(self, kind: str, payload_for: Any) -> List[Any]:
        """Send one state operation to every live worker behind a seq barrier.

        Returns the per-worker results (crashed workers excluded — their
        replacements converge via replay).  Raises if no worker applied the
        operation, or if the survivors disagree.
        """
        with self._cond:
            if self._closed:
                raise PoolStoppedError("worker pool is shut down")
            self._seq += 1
            seq = self._seq
            entry: Optional[Dict[str, Any]] = None
            if kind == "onboard":
                side, attributes = payload_for
                entry = {"seq": seq, "side": side, "attributes": attributes, "status": "pending"}
                self._state_log.append(entry)
                payload: Tuple[Any, ...] = (seq, side, attributes)
            elif kind == "swap":
                # The path becomes current *now*, under the lock: any respawn
                # snapshotting after this point opens the new bundle directly,
                # and the onboard log it would have replayed is superseded.
                self.bundle_path = Path(payload_for)
                self._swap_epoch += 1
                self._last_swap_seq = seq
                self._state_log.clear()
                payload = (seq, str(payload_for))
            else:  # pragma: no cover - internal misuse
                raise RuntimeError(f"not a broadcast kind: {kind!r}")
            targets = [w for w in self._workers if w is not None]
            if not targets:
                if entry is not None:
                    self._state_log.remove(entry)
                raise PoolStoppedError("no live workers to broadcast to")
            pendings: List[_Pending] = []
            for worker in targets:
                pending = _Pending(kind, payload, worker_index=worker.index)
                pending.broadcast = True
                self._req_counter += 1
                self._send_locked(worker, self._req_counter, pending)
                pendings.append(pending)
            self._broadcasts += 1
        increment("serve.pool.broadcasts")

        results: List[Any] = []
        errors: List[BaseException] = []
        crashes = 0
        for pending in pendings:
            try:
                results.append(pending.future.result(self.request_timeout))
            except WorkerCrashedError:
                crashes += 1
            except BaseException as exc:
                errors.append(exc)
        status = "applied" if results else "failed"
        if entry is not None:
            with self._cond:
                entry["status"] = status
        if errors and results:
            raise RuntimeError(
                f"workers diverged on {kind}: {len(results)} applied, "
                f"{len(errors)} failed ({errors[0]})"
            )
        if not results:
            if errors:
                raise errors[0]
            raise WorkerCrashedError(f"every worker died during {kind} broadcast")
        first = results[0]
        if any(r != first for r in results[1:]):
            raise RuntimeError(f"workers diverged on {kind}: {results!r}")
        return results

    # ------------------------------------------------------------- public API
    def score(self, users, items, timeout: Optional[float] = None) -> np.ndarray:
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        if users.shape != items.shape:
            raise ValueError("users and items must align")
        future = self._dispatch("score", (users, items))
        return future.result(timeout or self.request_timeout)

    def top_n(self, user: int, k: int = 10, exclude_seen: bool = True,
              timeout: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        future = self._dispatch("topn", (int(user), int(k), bool(exclude_seen)))
        return future.result(timeout or self.request_timeout)

    def score_on_worker(self, index: int, users, items,
                        timeout: Optional[float] = None) -> np.ndarray:
        """Score pinned to one worker — the parity harness compares workers."""
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        future = self._dispatch_to(index, "score", (users, items))
        return future.result(timeout or self.request_timeout)

    def add_user(self, attributes) -> int:
        return int(self._broadcast("onboard", ("user", attributes))[0])

    def add_item(self, attributes) -> int:
        return int(self._broadcast("onboard", ("item", attributes))[0])

    def swap_bundle_path(self, path: PathLike, validate_pairs: int = 32) -> Dict[str, Any]:
        """Hot-swap every worker onto the bundle at ``path`` (no dropped requests).

        The parent materialises mapped state and probes the candidate once;
        the probe is deterministic, so a parent-side pass means every worker's
        own off-path probe will pass too — the broadcast cannot half-apply for
        validation reasons.
        """
        from ..live.swap import validate_engine
        from .engine import InferenceEngine
        from .mapped import materialise_mapped, open_bundle_mapped

        path = Path(path)
        with span("serve.pool.swap"):
            materialise_mapped(path)
            candidate = InferenceEngine(
                open_bundle_mapped(path, materialise=False),
                cache_size=0,
                batch_size=self._options["batch_size"],
            )
            validate_engine(candidate, pairs=validate_pairs)
            del candidate
            results = self._broadcast("swap", path)
        return results[0]

    def onboarded(self, side: str) -> int:
        """Onboards applied since the last swap (every worker holds this many)."""
        with self._cond:
            return sum(1 for e in self._state_log
                       if e["status"] == "applied" and e["side"] == side)

    def healthz(self, timeout: float = 5.0) -> Dict[str, Any]:
        """Liveness + identity of every worker slot (probes each worker)."""
        with self._cond:
            snapshot = list(self._workers)
        futures: List[Tuple[int, Optional["Future[Any]"]]] = []
        for index, worker in enumerate(snapshot):
            if worker is None:
                futures.append((index, None))
                continue
            try:
                futures.append((index, self._dispatch_to(index, "healthz", ())))
            except (WorkerCrashedError, PoolStoppedError):
                futures.append((index, None))
        workers = []
        for index, future in futures:
            worker = snapshot[index]
            if future is None or worker is None:
                workers.append({"index": index, "alive": False, "responsive": False})
                continue
            info = {
                "index": index,
                "pid": worker.pid,
                "alive": worker.process.is_alive(),
                "outstanding": worker.outstanding,
            }
            try:
                info.update(future.result(timeout))
                info["responsive"] = True
            except BaseException:
                info["responsive"] = False
            workers.append(info)
        healthy = sum(1 for w in workers if w.get("responsive"))
        return {
            "workers": workers,
            "num_workers": self.num_workers,
            "healthy_workers": healthy,
            "respawns": self._respawns,
            "bundle_path": str(self.bundle_path),
            "state_seq": self._seq,
        }

    def collect_telemetry(self, timeout: float = 10.0, max_spans: int = 5000) -> List[Dict[str, Any]]:
        """Harvest each live worker's telemetry snapshot over the pipe protocol.

        Returns one :func:`repro.telemetry.export.worker_snapshot` dict per worker
        that answered in time — counters, gauges, histogram states, recent
        span records and the span-drop count.  Read-only and per-worker
        fault-tolerant: a down or stalled worker is simply absent from the
        result (its slot shows up in :meth:`healthz` instead), so one sick
        process never blocks the fleet view.
        """
        with self._cond:
            snapshot = list(self._workers)
        futures: List["Future[Any]"] = []
        for index, worker in enumerate(snapshot):
            if worker is None:
                continue
            try:
                futures.append(self._dispatch_to(index, "telemetry", (int(max_spans),)))
            except (WorkerCrashedError, PoolStoppedError):
                continue
        snapshots: List[Dict[str, Any]] = []
        for future in futures:
            try:
                snapshots.append(future.result(timeout))
            except BaseException:
                continue
        return snapshots

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            live = sum(1 for w in self._workers if w is not None)
            outstanding = {
                w.index: w.outstanding for w in self._workers if w is not None
            }
        return {
            "workers": self.num_workers,
            "live_workers": live,
            "outstanding": outstanding,
            "dispatched": self._dispatched,
            "retried": self._retried,
            "respawns": self._respawns,
            "broadcasts": self._broadcasts,
            "state_seq": self._seq,
            "bundle_path": str(self.bundle_path),
        }

    def worker_pids(self) -> List[Optional[int]]:
        with self._cond:
            return [w.pid if w is not None else None for w in self._workers]

    # -------------------------------------------------------------- lifecycle
    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` (default) in-flight requests finish first.

        Idempotent — repeat calls (atexit, signal unwind, context exit) return
        immediately.
        """
        if self._shutdown_called:
            return
        self._shutdown_called = True
        deadline = time.monotonic() + timeout
        with self._cond:
            self._closed = True
            if drain:
                while self._pending and time.monotonic() < deadline:
                    self._cond.wait(min(0.25, max(deadline - time.monotonic(), 0.01)))
            leftovers = list(self._pending.values())
            self._pending.clear()
            workers = [w for w in self._workers if w is not None]
            self._cond.notify_all()
        for pending in leftovers:
            if not pending.future.done():
                pending.future.set_exception(PoolStoppedError("worker pool shut down"))
        for worker in workers:
            try:
                worker.conn.send(("stop", None, drain))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(max(deadline - time.monotonic(), 1.0))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(5.0)
        for worker in workers:
            if worker.receiver is not None and worker.receiver is not threading.current_thread():
                worker.receiver.join(5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        events.emit("serve.pool_stop", drained=drain, respawns=self._respawns)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
