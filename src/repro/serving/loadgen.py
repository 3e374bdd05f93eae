"""Load-generation primitives for the serving suite of ``repro bench``.

* :func:`closed_loop` — ``C`` caller threads each keep exactly one request
  in flight, back to back, for a fixed duration.  Throughput is completed
  requests over the overlap window; latency percentiles are per-request wall
  times.
* :func:`open_loop` — requests are *scheduled* at a fixed arrival rate
  regardless of completions, and latency is measured from the scheduled send
  time, so a backed-up server honestly accumulates queueing delay instead of
  silently slowing the generator (no coordinated omission).
* :func:`pool_phase` — for each worker count a
  :class:`~repro.serving.workers.WorkerPool` is stood up over one bundle
  (mmap-shared state), checked for bitwise parity against the
  single-process oracle on *every* worker — before and after an onboarding
  broadcast — then driven with the closed loop.  Memory sharing is measured
  from ``/proc/<pid>/smaps``: the per-mapping **Pss** of the bundle's
  ``mapped/`` files summed over all workers (Pss divides shared pages among
  their sharers, so N workers over one physical copy sum to ~the same number
  as one worker — unlike ``VmRSS``, which would count the shared pages N
  times).  The cell records the machine's ``cpu_count``: throughput can only
  scale onto cores that exist.
* :func:`tracing_phase` — traced vs untraced p50 on the direct scoring path,
  request-interleaved, plus span-loss accounting.

:mod:`repro.bench` composes these into the ``serving`` suite.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..telemetry import metrics, tracing
from .batching import BatchingEngine, EngineOverloadedError
from .engine import InferenceEngine

__all__ = [
    "closed_loop",
    "open_loop",
    "pool_phase",
    "tracing_phase",
    "batch_distribution",
    "TRACE_PAIRS_PER_REQUEST",
]

_MS = 1e3


def _summarise(latencies: List[float], completed: int, elapsed: float, errors: int, shed: int) -> Dict[str, Any]:
    """Throughput + latency percentiles for one load cell."""
    data = np.asarray(latencies, dtype=np.float64)
    if data.size == 0:
        data = np.zeros(1)
    return {
        "requests": int(completed),
        "errors": int(errors),
        "shed": int(shed),
        "elapsed_s": float(elapsed),
        "throughput_rps": float(completed / elapsed) if elapsed > 0 else 0.0,
        "mean_ms": float(data.mean() * _MS),
        "p50_ms": float(np.percentile(data, 50) * _MS),
        "p95_ms": float(np.percentile(data, 95) * _MS),
        "p99_ms": float(np.percentile(data, 99) * _MS),
        "max_ms": float(data.max() * _MS),
    }


def _request_slices(
    users: np.ndarray, items: np.ndarray, pairs_per_request: int
) -> List[tuple]:
    """Cut the pair pool into fixed-size candidate-set requests."""
    step = max(int(pairs_per_request), 1)
    return [
        (users[lo : lo + step], items[lo : lo + step])
        for lo in range(0, len(users) - step + 1, step)
    ]


def closed_loop(
    score,
    users: np.ndarray,
    items: np.ndarray,
    concurrency: int,
    duration_s: float,
    pairs_per_request: int,
) -> Dict[str, Any]:
    """``concurrency`` threads, one request in flight each, for ``duration_s``."""
    barrier = threading.Barrier(concurrency)
    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    spans: List[List[float]] = [[0.0, 0.0] for _ in range(concurrency)]
    per_worker = len(users) // concurrency

    def worker(w: int) -> None:
        lo = w * per_worker
        requests = _request_slices(
            users[lo : lo + per_worker], items[lo : lo + per_worker], pairs_per_request
        )
        lat = latencies[w]
        cursor = 0
        barrier.wait()
        started = time.perf_counter()
        deadline = started + duration_s
        now = started
        while now < deadline:
            u, i = requests[cursor]
            cursor = (cursor + 1) % len(requests)
            t0 = time.perf_counter()
            try:
                score(u, i)
            except Exception:
                errors[w] += 1
            now = time.perf_counter()
            lat.append(now - t0)
        spans[w] = [started, now]

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    flat = [value for per in latencies for value in per]
    elapsed = max(end for _, end in spans) - min(start for start, _ in spans)
    return _summarise(flat, completed=len(flat) - sum(errors), elapsed=elapsed, errors=sum(errors), shed=0)


def open_loop(
    score,
    users: np.ndarray,
    items: np.ndarray,
    rate_rps: float,
    duration_s: float,
    pairs_per_request: int,
    max_workers: int = 32,
) -> Dict[str, Any]:
    """Schedule sends at ``rate_rps`` and measure from the scheduled instant."""
    total = max(int(rate_rps * duration_s), 1)
    interval = 1.0 / rate_rps
    requests = _request_slices(users, items, pairs_per_request)
    latencies: List[float] = []
    record_lock = threading.Lock()
    errors = 0
    shed = 0

    def run_one(idx: int, scheduled: float) -> None:
        nonlocal errors, shed
        try:
            score(*requests[idx % len(requests)])
        except EngineOverloadedError:
            with record_lock:
                shed += 1
            return
        except Exception:
            with record_lock:
                errors += 1
            return
        done = time.perf_counter()
        with record_lock:
            latencies.append(done - scheduled)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        for idx in range(total):
            scheduled = start + idx * interval
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pool.submit(run_one, idx, scheduled)
    elapsed = time.perf_counter() - start
    summary = _summarise(latencies, completed=len(latencies), elapsed=elapsed, errors=errors, shed=shed)
    summary["offered_rps"] = float(rate_rps)
    return summary


def batch_distribution(name: str) -> Dict[str, float]:
    histogram = metrics.get_registry().histograms().get(name)
    if histogram is None:
        return {}
    summary = histogram.summary()
    # TimingHistogram speaks seconds; serve.batch.size records pair counts.
    strip = name.endswith(".size")
    return {
        (key[:-2] if strip and key.endswith("_s") else key): float(value)
        for key, value in summary.items()
    }


def _mapped_pss_kb(pid: int, mapped_dir: Path) -> Optional[float]:
    """Sum the Pss of a process's mappings of the bundle's ``mapped/`` files.

    Pss (proportional set size) charges each resident page 1/N-th to each of
    its N sharers, so summing it across workers counts the physically shared
    mapped arrays once — the honest measure of what mmap sharing saves.
    Returns None when smaps is unavailable (non-Linux).
    """
    needle = str(mapped_dir)
    total = 0.0
    in_mapping = False
    try:
        with open(f"/proc/{pid}/smaps", "r") as handle:
            for line in handle:
                if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ", 1)[0]:
                    # mapping header: "addr-addr perms offset dev inode path"
                    in_mapping = needle in line
                elif in_mapping and line.startswith("Pss:"):
                    total += float(line.split()[1])
    except OSError:
        return None
    return total


def _total_pss_kb(pid: int) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "r") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return float(line.split()[1])
    except OSError:
        pass
    try:
        total = 0.0
        with open(f"/proc/{pid}/smaps", "r") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total += float(line.split()[1])
        return total
    except OSError:
        return None


def pool_phase(
    bundle_dir: Path,
    oracle: InferenceEngine,
    users: np.ndarray,
    items: np.ndarray,
    worker_counts: Sequence[int],
    concurrency: int,
    duration_s: float,
    pairs_per_request: int,
    parity_pairs: int,
    max_batch_pairs: int,
    max_queue_depth: int,
) -> Dict[str, Any]:
    """Sweep worker counts: parity on every worker, throughput, shared-memory Pss."""
    from .mapped import MAPPED_DIR_NAME
    from .workers import WorkerPool

    worker_counts = sorted(set(int(w) for w in worker_counts))
    count = min(parity_pairs, len(users))
    reference = oracle.predict_batch(users[:count], items[:count])
    mapped_dir = bundle_dir / MAPPED_DIR_NAME

    cells: Dict[str, Dict[str, Any]] = {}
    onboard_parity = True
    all_parity = True
    for workers in worker_counts:
        pool = WorkerPool(
            bundle_dir,
            workers=workers,
            cache_size=0,
            max_batch_pairs=max_batch_pairs,
            max_queue_depth=max_queue_depth,
        )
        try:
            # Parity gate per worker — and page warmup in the same stroke: the
            # full parity slice touches the mapped arrays, so the Pss numbers
            # below measure resident shared pages, not lazily unfaulted ones.
            parity_ok = all(
                np.array_equal(pool.score_on_worker(w, users[:count], items[:count]), reference)
                for w in range(workers)
            )
            all_parity = all_parity and parity_ok

            pids = [pid for pid in pool.worker_pids() if pid is not None]
            mapped_pss = [_mapped_pss_kb(pid, mapped_dir) for pid in pids]
            total_pss = [_total_pss_kb(pid) for pid in pids]
            have_pss = all(v is not None for v in mapped_pss)

            cell = closed_loop(
                pool.score, users, items, concurrency, duration_s, pairs_per_request
            )
            cell["workers"] = int(workers)
            cell["parity_ok"] = bool(parity_ok)
            cell["mapped_pss_kb"] = float(sum(mapped_pss)) if have_pss else None
            cell["total_pss_kb"] = (
                float(sum(v for v in total_pss if v is not None))
                if any(v is not None for v in total_pss)
                else None
            )
            cell["respawns"] = int(pool.stats()["respawns"])
            cells[str(workers)] = cell

            if workers == max(worker_counts):
                # Onboarding broadcast parity at the widest pool: every worker
                # must hold the same node set and score it bitwise like the
                # oracle after add_item/add_user.
                item_row = np.array(oracle._attr["item"][0], dtype=np.float64)
                user_row = np.array(oracle._attr["user"][0], dtype=np.float64)
                new_item = pool.add_item(item_row)
                new_user = pool.add_user(user_row)
                onboard_parity = (
                    new_item == oracle.add_item(item_row)
                    and new_user == oracle.add_user(user_row)
                )
                probe_u = np.append(users[:32], new_user)
                probe_i = np.append(items[:32], new_item)
                expect = oracle.predict_batch(probe_u, probe_i)
                onboard_parity = onboard_parity and all(
                    np.array_equal(pool.score_on_worker(w, probe_u, probe_i), expect)
                    for w in range(workers)
                )
                all_parity = all_parity and onboard_parity
        finally:
            pool.shutdown()

    lowest = str(min(worker_counts))
    highest = str(max(worker_counts))
    base = cells[lowest]
    top = cells[highest]
    scaling_x = (
        top["throughput_rps"] / base["throughput_rps"] if base["throughput_rps"] else 0.0
    )
    rss_growth_x = (
        top["mapped_pss_kb"] / base["mapped_pss_kb"]
        if base.get("mapped_pss_kb") and top.get("mapped_pss_kb") is not None
        else None
    )
    errors = sum(cell["errors"] for cell in cells.values())
    respawns = sum(cell["respawns"] for cell in cells.values())
    return {
        "worker_counts": [int(w) for w in worker_counts],
        "concurrency": int(concurrency),
        "cpu_count": int(os.cpu_count() or 1),
        "cells": cells,
        "scaling_x": float(scaling_x),
        "rss_growth_x": None if rss_growth_x is None else float(rss_growth_x),
        "parity": bool(all_parity),
        "onboard_parity": bool(onboard_parity),
        "respawns": int(respawns),
        "errors": int(errors),
        "ok": bool(all_parity and errors == 0 and respawns == 0),
    }


#: candidate-set size for the tracing-overhead phase.  Tracing costs a small
#: per-request *constant* (a context mint + one extra span), so the honest
#: ratio gate measures it against a full reranking candidate pool — where
#: scoring is the dominant term, as in production — rather than the 16-pair
#: micro-slice the coalescing cells use to stress fusion.
TRACE_PAIRS_PER_REQUEST = 1024


def tracing_phase(
    engine: InferenceEngine,
    users: np.ndarray,
    items: np.ndarray,
    requests: int,
    rounds: int,
    pairs_per_request: int = TRACE_PAIRS_PER_REQUEST,
) -> Dict[str, Any]:
    """Traced vs untraced p50 on the direct scoring path, request-interleaved.

    *Untraced* is the pre-tracing status quo — telemetry on, no trace context,
    no ingress span.  *Traced* mints a trace id per request, activates it
    with :class:`~repro.telemetry.tracing.trace_scope` and wraps the score
    in the ingress ``serve.request`` span, exactly what the HTTP front door
    does.  The two conditions alternate request by request within each
    round, so machine drift (CPU frequency, co-tenants, GC) lands on both
    distributions equally instead of being misattributed to tracing.  After
    one warmup round, each of ``rounds`` rounds yields one traced/untraced
    p50 ratio in ``round_overhead_x``.  Span records are reset after the
    warmup so ``span_dropped`` counts loss caused by *this phase*, not
    earlier load cells filling the ring.
    """
    slices = _request_slices(users, items, pairs_per_request)
    n = max(1, int(requests))

    def _round() -> tuple:
        untraced = np.empty(n, dtype=np.float64)
        traced = np.empty(n, dtype=np.float64)
        for idx in range(n):
            u, i = slices[idx % len(slices)]
            t0 = time.perf_counter()
            engine.score(u, i)
            untraced[idx] = time.perf_counter() - t0
            t0 = time.perf_counter()
            with tracing.trace_scope((tracing.new_trace_id(), "", f"load-{idx}")):
                with tracing.span("serve.request"):
                    engine.score(u, i)
            traced[idx] = time.perf_counter() - t0
        return float(np.percentile(untraced, 50)), float(np.percentile(traced, 50))

    _round()  # warmup: caches, lazy allocations
    tracing.reset_spans()
    measured = [_round() for _ in range(max(1, int(rounds)))]
    return {
        "requests": int(n),
        "rounds": len(measured),
        "pairs_per_request": int(pairs_per_request),
        "untraced_p50_ms": [untraced * _MS for untraced, _ in measured],
        "traced_p50_ms": [traced * _MS for _, traced in measured],
        "round_overhead_x": [traced / untraced for untraced, traced in measured],
        "spans_recorded": len(tracing.export_spans()),
        "span_dropped": int(tracing.dropped_records()),
    }
