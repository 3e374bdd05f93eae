"""The load generator: producer of ``BENCH_load.json`` (``repro load-bench``).

Latency-under-concurrency is a tracked number like train throughput: this
module drives a serving engine with concurrent scoring traffic and reports
throughput and tail latency for the *direct* path (every caller thread hits
:meth:`InferenceEngine.score` alone — the single-request baseline) against
the *batched* path (callers submit through the coalescing
:class:`~repro.serving.batching.BatchingEngine`).  Two load models:

* **closed loop** — ``C`` worker threads each keep exactly one request in
  flight, back to back, for a fixed duration; run over a concurrency ramp
  (default 1 → 4 → 16).  Throughput is completed requests over the overlap
  window; latency percentiles are per-request wall times.
* **open loop** — requests are *scheduled* at a fixed arrival rate regardless
  of completions, and latency is measured from the scheduled send time, so a
  backed-up server honestly accumulates queueing delay instead of silently
  slowing the generator (no coordinated omission).

Both paths score identical seeded workloads and the batched results are
checked bitwise against the direct path before any timing runs — the bench
refuses to compare paths that disagree.  Engines run with ``cache_size=0``:
the LRU would otherwise answer the second pass from memory and the bench
would measure the cache, not the serving path.

A third phase sweeps the **multi-process pool** (schema v2): for each worker
count in ``pool_worker_counts`` a :class:`~repro.serving.workers.WorkerPool`
is stood up over the same bundle (mmap-shared state), checked for bitwise
parity against the single-process oracle on *every* worker — before and after
an onboarding broadcast — then driven with the closed-loop workload.  Memory
sharing is measured from ``/proc/<pid>/smaps``: the per-mapping **Pss** of the
bundle's ``mapped/`` files summed over all workers (Pss divides shared pages
among their sharers, so N workers over one physical copy sum to ~the same
number as one worker — unlike ``VmRSS``, which would count the shared pages N
times).  The ``pool`` section records throughput scaling, the mapped-Pss
growth ratio, parity, respawns, and the machine's ``cpu_count`` — the
scaling tripwire in ``benchmarks/test_pool_baseline.py`` only binds when the
recording machine actually had cores to scale onto.

A fourth phase (schema v3) measures **tracing overhead**: the same direct
scoring workload with and without a per-request
trace (a fresh trace id activated with ``tracing.trace_scope``) + ingress
span, best-of-N p50s, plus
span-loss accounting — the numbers ``benchmarks/test_trace_overhead.py``
gates at ≤5% overhead and zero dropped spans.

``run_load_bench`` writes the ``BENCH_load.json`` baseline consumed by
``benchmarks/test_load_baseline.py`` + ``benchmarks/test_pool_baseline.py`` +
``benchmarks/test_trace_overhead.py`` (the tripwires) and surfaced by
``repro report``; ``check=True`` is the quick smoke invocation wired into the
benchmark suite.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..telemetry import metrics, tracing
from .batching import BatchingEngine, EngineOverloadedError
from .engine import InferenceEngine

__all__ = ["LOAD_SCHEMA_VERSION", "run_load_bench", "render_load_bench"]

#: v2 added the multi-process ``pool`` section; v3 the ``tracing`` overhead
#: section (traced vs untraced p50 + span-loss accounting)
LOAD_SCHEMA_VERSION = 3

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


def _closed_loop(
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


def _open_loop(
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


def _batch_distribution(name: str) -> Dict[str, float]:
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


def _pool_phase(
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

            cell = _closed_loop(
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


def _tracing_phase(
    engine: InferenceEngine,
    users: np.ndarray,
    items: np.ndarray,
    pairs_per_request: int = TRACE_PAIRS_PER_REQUEST,
    requests: int = 200,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Traced vs untraced p50 on the direct scoring path, request-interleaved.

    *Untraced* is the pre-tracing status quo — telemetry on, no trace context,
    no ingress span.  *Traced* mints a trace id per request, activates it
    with :class:`~repro.telemetry.tracing.trace_scope` and wraps the score
    in the ingress ``serve.request`` span, exactly what the HTTP front door
    does.  The two conditions alternate request by request within each
    round, so machine drift (CPU frequency, co-tenants, GC) lands on both
    distributions equally instead of being misattributed to tracing; ``overhead_x`` is the smallest traced/untraced
    p50 ratio over ``repeats`` rounds.  This is the number the
    ``benchmarks/test_trace_overhead.py`` tripwire gates at ≤5%; span records
    are reset first so ``span_dropped`` counts loss caused by *this phase*,
    not earlier load cells filling the ring.
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
        return (
            float(np.percentile(untraced, 50)),
            float(np.percentile(traced, 50)),
        )

    _round()  # warmup: caches, lazy allocations
    tracing.reset_spans()
    best = min(
        (_round() for _ in range(repeats)),
        key=lambda r: (r[1] / r[0]) if r[0] else float("inf"),
    )
    spans_recorded = len(tracing.export_spans())
    span_dropped = tracing.dropped_records()
    return {
        "requests": int(n),
        "repeats": int(repeats),
        "pairs_per_request": int(pairs_per_request),
        "untraced_p50_ms": float(best[0] * _MS),
        "traced_p50_ms": float(best[1] * _MS),
        "overhead_x": float(best[1] / best[0]) if best[0] else 0.0,
        "spans_recorded": int(spans_recorded),
        "span_dropped": int(span_dropped),
    }


def run_load_bench(
    dataset: str = "ML-100K",
    scenario: str = "item_cold",
    scale_name: str = "smoke",
    epochs: Optional[int] = 2,
    bundle_path: Optional[str] = None,
    concurrencies: Sequence[int] = (1, 4, 16),
    duration_s: float = 1.0,
    rate_rps: float = 300.0,
    pairs_per_request: int = 16,
    embedding_dim: Optional[int] = 40,
    parity_pairs: int = 512,
    tick_interval: float = 0.0,
    max_batch_pairs: int = 8192,
    max_queue_depth: int = 4096,
    pool_worker_counts: Sequence[int] = (1, 2, 4),
    pool_concurrency: int = 8,
    seed: int = 0,
    output: Optional[str] = "BENCH_load.json",
    check: bool = False,
) -> Dict[str, Any]:
    """Run the full load matrix; write ``output`` unless ``None``.

    Each request scores a ``pairs_per_request`` candidate set (the reranking
    shape a recommender front-end actually sends), and the bundle is trained
    at ``embedding_dim`` (default 40 — the paper's dimension, instead of the
    smoke scale's test-suite toy dimension) so the serving compute being
    coalesced is representative.  The batching engine runs in its default
    adaptive-drain mode (``tick_interval=0``): batches are whatever queued
    while the previous fused call executed, so no request ever waits on an
    artificial window — the configuration whose throughput this baseline
    actually pins.  ``check`` shrinks everything (one short cell
    per mode, no open loop) into a seconds-scale smoke invocation that still
    exercises training → bundle → both serving paths → parity; the tripwire
    suite runs it through the CLI.
    """
    from .bundle import export_bundle, load_bundle

    if check:
        concurrencies = tuple(concurrencies[:2]) or (1, 4)
        duration_s = min(duration_s, 0.3)
        if pool_worker_counts:
            pool_worker_counts = tuple(sorted(set(pool_worker_counts)))[:2] or (1, 2)

    # The pool phase spawns workers that open the bundle *directory*, so a
    # trained throwaway bundle must outlive this whole function body — the
    # tempdir is cleaned up in the final finally, not at load time.
    scratch: Optional[tempfile.TemporaryDirectory] = None
    try:
        if bundle_path is not None:
            bundle_dir = Path(bundle_path)
            bundle = load_bundle(bundle_dir)
            epochs_trained = None
        else:
            from dataclasses import replace

            from ..core import AGNN
            from ..data import make_split
            from ..experiments.configs import get_scale
            from ..nn import init as nn_init

            scale = get_scale(scale_name)
            train_config = scale.train if epochs is None else replace(scale.train, epochs=epochs)
            data = scale.datasets[dataset]()
            nn_init.seed(scale.seed)
            task = make_split(data, scenario, scale.split_fraction, seed=scale.seed)
            agnn_config = (
                scale.agnn
                if embedding_dim is None
                else replace(scale.agnn, embedding_dim=embedding_dim)
            )
            model = AGNN(agnn_config, rng_seed=scale.seed)
            history = model.fit(task, train_config)
            epochs_trained = history.num_epochs
            scratch = tempfile.TemporaryDirectory(prefix="repro-load-")
            bundle_dir = export_bundle(
                model, task, Path(scratch.name) / "bundle", note="load-bench"
            )
            bundle = load_bundle(bundle_dir)

        return _run_load_bench_phases(
            bundle=bundle,
            bundle_dir=bundle_dir,
            dataset=dataset,
            scenario=scenario,
            scale_name=scale_name,
            epochs_trained=epochs_trained,
            concurrencies=concurrencies,
            duration_s=duration_s,
            rate_rps=rate_rps,
            pairs_per_request=pairs_per_request,
            embedding_dim=embedding_dim,
            parity_pairs=parity_pairs,
            tick_interval=tick_interval,
            max_batch_pairs=max_batch_pairs,
            max_queue_depth=max_queue_depth,
            pool_worker_counts=tuple(pool_worker_counts),
            pool_concurrency=pool_concurrency,
            seed=seed,
            output=output,
            check=check,
        )
    finally:
        if scratch is not None:
            scratch.cleanup()


def _run_load_bench_phases(
    bundle,
    bundle_dir: Path,
    dataset: str,
    scenario: str,
    scale_name: str,
    epochs_trained: Optional[int],
    concurrencies: Sequence[int],
    duration_s: float,
    rate_rps: float,
    pairs_per_request: int,
    embedding_dim: Optional[int],
    parity_pairs: int,
    tick_interval: float,
    max_batch_pairs: int,
    max_queue_depth: int,
    pool_worker_counts: Sequence[int],
    pool_concurrency: int,
    seed: int,
    output: Optional[str],
    check: bool,
) -> Dict[str, Any]:
    metrics.reset()
    tracing.reset_spans()
    with metrics.enabled():
        # cache_size=0: measure the serving path, not the LRU.
        engine = InferenceEngine(bundle, cache_size=0)
        rng = np.random.default_rng(seed)
        pool = 4096
        users = rng.integers(0, engine.num_users, size=pool).astype(np.int64)
        items = rng.integers(0, engine.num_items, size=pool).astype(np.int64)

        batching = BatchingEngine(
            engine,
            max_batch_pairs=max_batch_pairs,
            max_queue_depth=max_queue_depth,
            tick_interval=tick_interval,
        )
        try:
            # Parity gate: the coalesced path must be bitwise the direct path.
            count = min(parity_pairs, pool)
            direct_ref = engine.score(users[:count], items[:count])
            chunk = 7  # deliberately awkward splits so coalescing has to fuse
            futures = [
                batching.submit_score(
                    users[lo : min(lo + chunk, count)], items[lo : min(lo + chunk, count)]
                )
                for lo in range(0, count, chunk)
            ]
            batched_ref = np.concatenate([future.result(60.0) for future in futures])
            max_abs_diff = float(np.max(np.abs(direct_ref - batched_ref))) if count else 0.0
            parity_ok = bool(np.array_equal(direct_ref, batched_ref))

            closed: Dict[str, Dict[str, Dict[str, Any]]] = {"direct": {}, "batched": {}}
            for concurrency in concurrencies:
                closed["direct"][str(concurrency)] = _closed_loop(
                    engine.score, users, items, concurrency, duration_s, pairs_per_request
                )
                closed["batched"][str(concurrency)] = _closed_loop(
                    batching.score, users, items, concurrency, duration_s, pairs_per_request
                )

            open_loop: Dict[str, Any] = {}
            if not check:
                open_loop = {
                    "rate_rps": float(rate_rps),
                    "duration_s": float(duration_s),
                    "direct": _open_loop(
                        engine.score, users, items, rate_rps, duration_s, pairs_per_request
                    ),
                    "batched": _open_loop(
                        batching.score, users, items, rate_rps, duration_s, pairs_per_request
                    ),
                }

            batching_stats = batching.stats()
        finally:
            batching.stop(drain=True)

        tracing_section = _tracing_phase(
            engine,
            users,
            items,
            requests=60 if check else 300,
            repeats=2 if check else 3,
        )

        pool_section: Dict[str, Any] = {}
        if pool_worker_counts:
            pool_section = _pool_phase(
                bundle_dir,
                engine,
                users,
                items,
                pool_worker_counts,
                pool_concurrency,
                duration_s,
                pairs_per_request,
                parity_pairs,
                max_batch_pairs,
                max_queue_depth,
            )

        counters = metrics.get_registry().counters()
        batch_telemetry = {
            "ticks": batching_stats["ticks"],
            "coalesced_requests": batching_stats["coalesced_requests"],
            "fallbacks": batching_stats["fallbacks"],
            "shed": batching_stats["shed"],
            "shed_counter": int(counters.get("serve.shed", 0)),
            "batch_pairs": _batch_distribution("serve.batch.size"),
            "queue_wait": _batch_distribution("serve.batch.wait"),
        }

    top = str(max(concurrencies))
    direct_top = closed["direct"][top]
    batched_top = closed["batched"][top]
    summary = {
        "top_concurrency": int(top),
        "direct_throughput_rps": direct_top["throughput_rps"],
        "batched_throughput_rps": batched_top["throughput_rps"],
        "throughput_gain_x": (
            batched_top["throughput_rps"] / direct_top["throughput_rps"]
            if direct_top["throughput_rps"]
            else 0.0
        ),
        "direct_p99_ms": direct_top["p99_ms"],
        "batched_p99_ms": batched_top["p99_ms"],
        "p99_gain_x": (
            direct_top["p99_ms"] / batched_top["p99_ms"] if batched_top["p99_ms"] else 0.0
        ),
    }
    if pool_section:
        summary["pool_workers"] = int(max(pool_section["worker_counts"]))
        summary["pool_scaling_x"] = pool_section["scaling_x"]
        summary["pool_rss_growth_x"] = pool_section["rss_growth_x"]
    summary["trace_overhead_x"] = tracing_section["overhead_x"]

    total_errors = sum(
        cell["errors"] for mode in closed.values() for cell in mode.values()
    )
    payload: Dict[str, Any] = {
        "schema_version": LOAD_SCHEMA_VERSION,
        "meta": {
            "dataset": dataset,
            "scenario": scenario,
            "scale": scale_name,
            "epochs_trained": epochs_trained,
            "seed": int(seed),
            "check": bool(check),
            "users": int(engine.num_users),
            "items": int(engine.num_items),
            "pairs_per_request": int(pairs_per_request),
            "embedding_dim": None if embedding_dim is None else int(embedding_dim),
            "engine": {
                "cache_size": 0,
                "tick_interval_s": float(tick_interval),
                "max_batch_pairs": int(max_batch_pairs),
                "max_queue_depth": int(max_queue_depth),
            },
            "parity": {
                "ok": parity_ok,
                "max_abs_diff": max_abs_diff,
                "pairs": int(count),
            },
        },
        "closed_loop": {
            "duration_s": float(duration_s),
            "concurrencies": [int(c) for c in concurrencies],
            **closed,
        },
        "open_loop": open_loop,
        "batching": batch_telemetry,
        "tracing": tracing_section,
        "pool": pool_section,
        "summary": summary,
        "ok": bool(
            parity_ok
            and total_errors == 0
            and (not pool_section or pool_section["ok"])
        ),
    }

    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload


def render_load_bench(payload: Dict[str, Any]) -> str:
    """Human-readable table for one load-bench payload."""
    lines: List[str] = []
    meta = payload["meta"]
    parity = meta["parity"]
    lines.append(
        f"load-bench {meta['dataset']}/{meta['scenario']} — "
        f"{meta['users']} users × {meta['items']} items"
        + ("  [check]" if meta.get("check") else "")
    )
    lines.append(
        f"parity: {'ok' if parity['ok'] else 'FAILED'} "
        f"(max |Δ| = {parity['max_abs_diff']:.2e} over {parity['pairs']} pairs)"
    )
    lines.append("")
    lines.append(f"{'mode':<8} {'conc':>4} {'req/s':>9} {'p50':>9} {'p95':>9} {'p99':>9} {'errors':>6}")
    closed = payload["closed_loop"]
    for mode in ("direct", "batched"):
        for concurrency in closed["concurrencies"]:
            cell = closed[mode][str(concurrency)]
            lines.append(
                f"{mode:<8} {concurrency:>4} {cell['throughput_rps']:>9.1f} "
                f"{cell['p50_ms']:>7.2f}ms {cell['p95_ms']:>7.2f}ms "
                f"{cell['p99_ms']:>7.2f}ms {cell['errors']:>6d}"
            )
    open_loop = payload.get("open_loop") or {}
    if open_loop:
        lines.append("")
        lines.append(f"open loop @ {open_loop['rate_rps']:.0f} req/s:")
        for mode in ("direct", "batched"):
            cell = open_loop[mode]
            lines.append(
                f"  {mode:<8} p50 {cell['p50_ms']:.2f}ms  p99 {cell['p99_ms']:.2f}ms  "
                f"completed {cell['requests']}  shed {cell['shed']}"
            )
    pool = payload.get("pool") or {}
    if pool:
        lines.append("")
        lines.append(
            f"worker pool (closed loop, c={pool['concurrency']}, "
            f"{pool['cpu_count']} cpu): parity {'ok' if pool['parity'] else 'FAILED'}, "
            f"onboard parity {'ok' if pool['onboard_parity'] else 'FAILED'}, "
            f"respawns {pool['respawns']}"
        )
        for workers in pool["worker_counts"]:
            cell = pool["cells"][str(workers)]
            pss = cell.get("mapped_pss_kb")
            pss_text = f"{pss / 1024.0:.1f}MB mapped-pss" if pss is not None else "pss n/a"
            lines.append(
                f"  {workers} worker(s): {cell['throughput_rps']:>9.1f} req/s  "
                f"p99 {cell['p99_ms']:.2f}ms  {pss_text}  errors {cell['errors']}"
            )
        growth = pool.get("rss_growth_x")
        growth_text = f"{growth:.2f}x" if growth is not None else "n/a"
        lines.append(
            f"  scaling {pool['scaling_x']:.2f}x "
            f"({min(pool['worker_counts'])}→{max(pool['worker_counts'])} workers), "
            f"mapped-pss growth {growth_text}"
        )
    trace_section = payload.get("tracing") or {}
    if trace_section:
        lines.append("")
        lines.append(
            f"tracing: p50 {trace_section['traced_p50_ms']:.2f}ms traced vs "
            f"{trace_section['untraced_p50_ms']:.2f}ms untraced "
            f"({trace_section['overhead_x']:.3f}x), "
            f"{trace_section['spans_recorded']} spans recorded, "
            f"{trace_section['span_dropped']} dropped"
        )
    batching = payload.get("batching") or {}
    if batching.get("batch_pairs"):
        pairs = batching["batch_pairs"]
        lines.append("")
        lines.append(
            f"coalescing: {batching['ticks']} ticks, "
            f"{batching['coalesced_requests']} coalesced requests, "
            f"batch p50 {pairs.get('p50', 0.0):.0f} pairs (max {pairs.get('max', 0.0):.0f}), "
            f"shed {batching['shed']}"
        )
    summary = payload["summary"]
    lines.append("")
    lines.append(
        f"c={summary['top_concurrency']}: batched {summary['batched_throughput_rps']:.1f} req/s vs "
        f"direct {summary['direct_throughput_rps']:.1f} req/s "
        f"({summary['throughput_gain_x']:.2f}x); "
        f"p99 {summary['batched_p99_ms']:.2f}ms vs {summary['direct_p99_ms']:.2f}ms "
        f"({summary['p99_gain_x']:.2f}x)"
    )
    return "\n".join(lines)
