"""One bench runner: ``repro bench {training,graphs,serving,refresh}``.

Every suite writes ``BENCH_<suite>.json`` in one versioned envelope::

    {
      "schema_version": 1,
      "suite":   "training" | "graphs" | "serving" | "refresh",
      "preset":  "full" | "check",
      "env":     {nproc, blas, blas_threads, numpy, python, git_describe},
      "config":  {the preset's constants},
      "metrics": {name: scalar},     # flat; what `repro report` diffs
      "results": {...},              # the suite's nested data
      "ok":      bool,               # the suite's own correctness verdict
    }

Each suite has exactly two fixed presets (:data:`PRESETS`): ``full`` writes
the committed baseline, ``check`` is the seconds-scale run behind ``--check``
and the ``benchmarks/`` tripwires, and still exercises every property a
tripwire asserts.  The module owns what every suite needs once: scale and
dataset resolution plus the seeded smoke fit at D=40 (:func:`smoke_fit`) and
its bundle export (:func:`smoke_bundle`), the timing helper (:func:`timed`:
warmup, fixed repeats, median and IQR), and the environment fingerprint.

Suites:

* ``training`` — one metered fit yields the span/op snapshot and the
  throughput; a second fit checks seeded determinism bitwise; the graph
  micro-benchmark times the vectorised pool and fused build against the
  reference implementations in :mod:`repro.graphs.parity`;
* ``graphs`` — build time of the inverted-index candidate builder up to
  n = 10⁵ against the exact builder, log–log exponents, and the pool-overlap
  parity sweep;
* ``serving`` — one trained bundle drives offline parity, cold and cached
  latency (1-pair and 100-pair calls), onboarding, an HTTP round trip, the
  direct-vs-coalesced closed and open loops, the tracing phase and the
  worker-pool sweep (primitives in :mod:`repro.serving.loadgen`);
* ``refresh`` — warm-start refresh vs a from-scratch fit, hot swap under
  load, and the rejection paths.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
import threading
import time
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import telemetry
from .core import AGNN
from .data import make_split, warm_split
from .experiments.configs import get_scale
from .graphs.construction import build_graph_from_arrays, _pool_from_proximity
from .graphs.parity import (
    build_fused,
    build_reference,
    parity_sweep,
    pool_reference,
    synthetic_graph_inputs,
    synthetic_inputs,
)
from .graphs.proximity import combined_proximity
from .live.gates import evaluate_promotion
from .live.incremental import DEFAULT_REFRESH_CONFIG, build_refresh_task
from .live.refresh import simulate_stream
from .live.store import BundleStore
from .live.swap import SwapValidationError, swap_bundle
from .nn import init as nn_init
from .serving import loadgen
from .serving.batching import BatchingEngine
from .serving.bundle import export_bundle, load_bundle
from .serving.engine import InferenceEngine
from .serving.server import make_server
from .telemetry.metrics import quantile

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "PRESETS",
    "FIT_DIM",
    "EXPECTED_SPAN_PATHS",
    "EXPECTED_SERVING_SPANS",
    "SUBLINEAR_EXPONENT",
    "MIN_SCALING_N",
    "SmokeFit",
    "smoke_fit",
    "smoke_bundle",
    "metered_fit",
    "summarise",
    "timed",
    "environment",
    "default_output",
    "run_suite",
    "render",
]

SCHEMA_VERSION = 1

#: the paper's embedding dimension; the smoke scale's own D=8 is a test toy
FIT_DIM = 40

#: untimed calls before the timed repeats (caches, lazy allocations)
WARMUP = 1

#: span paths the training snapshot must hold with non-zero time
EXPECTED_SPAN_PATHS = (
    "experiment",
    "experiment/fit",
    "experiment/fit/prepare/agnn.prepare/graph.build/graph.proximity",
    "experiment/fit/prepare/agnn.prepare/graph.build/graph.pool",
    "experiment/fit/epoch",
    "experiment/fit/epoch/agnn.resample/graph.neighbours",
    "experiment/fit/epoch/batch",
    "experiment/fit/epoch/batch/agnn.encode",
    "experiment/fit/epoch/batch/autograd.backward",
    "experiment/fit/epoch/batch/evae.loss",
    "experiment/predict/agnn.predict_scores",
    "experiment/predict/agnn.predict_scores/agnn.refine_cache",
    "experiment/predict/agnn.predict_scores/agnn.generate_cold/evae.generate",
)

#: span paths the serving snapshot must hold with non-zero time
EXPECTED_SERVING_SPANS = (
    "serve.export_bundle",
    "serve.load_bundle",
    "serve.refresh",
    "serve.score",
    "serve.score/serve.cache",
    "serve.score/serve.score_cold",
    "serve.topn",
    "serve.onboard",
    "serve.request",
)

#: The inverted build must fit below this log–log exponent at scale; the
#: exact all-pairs build sits near 2.  Between Python/BLAS fixed overheads at
#: small n and cache effects at large n, a true O(n) build fits ~1.0–1.3.
SUBLINEAR_EXPONENT = 1.5

#: Exponent gating only applies once the grid reaches scale — below this,
#: fixed overheads dominate and the fit is noise.
MIN_SCALING_N = 50_000

#: score-recall floor of the pool-overlap parity sweep
OVERLAP_FLOOR = 0.95

# Serving constants shared by both presets.  Each request scores a 16-pair
# candidate set (the reranking shape a front-end sends); engines run with the
# score cache off so the loops measure scoring, not the cache; the coalescing
# engine drains adaptively (tick 0), the configuration its baseline pins.
PAIRS_PER_REQUEST = 16
#: the engine phase also times cold and cached calls of this many distinct
#: pairs (the rerank shape: one candidate list per call), WIDE_CALLS of each
WIDE_PAIRS = 100
WIDE_CALLS = 40
PARITY_PAIRS = 512
MAX_BATCH_PAIRS = 8192
MAX_QUEUE_DEPTH = 4096
SEED = 0

#: The fixed presets.  ``full`` writes the committed baseline; ``check`` is
#: the quick run the tripwires assert on.  The fixed pool size across the
#: graphs grid measures the build strategy, not a pool that grows with n.
PRESETS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "training": {
        "full": {"graph_n": 2000, "graph_pool": 100, "graph_repeats": 5},
        "check": {"graph_n": 800, "graph_pool": 60, "graph_repeats": 3},
    },
    "graphs": {
        "full": {
            "n_grid": (2_000, 8_000, 32_000, 100_000),
            "exact_grid": (2_000, 4_000, 8_000),
            "pool_size": 100,
            "repeats": 2,
        },
        "check": {
            "n_grid": (1_000, 2_000, 4_000),
            "exact_grid": (500, 1_000, 2_000),
            "pool_size": 50,
            "repeats": 1,
        },
    },
    "serving": {
        "full": {
            "concurrencies": (1, 4, 16),
            "duration_s": 1.0,
            "rate_rps": 300.0,
            "pool_workers": (1, 2, 4),
            "latency_pairs": 200,
            "trace_requests": 300,
            "trace_rounds": 5,
        },
        "check": {
            "concurrencies": (1, 16),
            "duration_s": 0.5,
            "rate_rps": 200.0,
            "pool_workers": (1, 2, 4),
            "latency_pairs": 100,
            "trace_requests": 150,
            "trace_rounds": 3,
        },
    },
    "refresh": {
        "full": {
            "base_epochs": None,
            "refresh_epochs": None,
            "swap_threads": 4,
            "swap_requests": 50,
            "swaps": 6,
            "min_speedup": 1.5,
            "max_rmse_ratio": 1.001,
        },
        # Tiny fits are too noisy for the 1.5x bar and the RMSE match, so the
        # check run only asks for any warm speedup plus every correctness path.
        "check": {
            "base_epochs": 4,
            "refresh_epochs": 1,
            "swap_threads": 2,
            "swap_requests": 10,
            "swaps": 2,
            "min_speedup": 1.0,
            "max_rmse_ratio": None,
        },
    },
}


# --------------------------------------------------------------- measurement
def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """Median and interquartile range of ``samples``, in the samples' unit."""
    ordered = sorted(float(value) for value in samples)
    return {
        "median": quantile(ordered, 0.5),
        "iqr": quantile(ordered, 0.75) - quantile(ordered, 0.25),
        "n": len(ordered),
    }


def timed(fn: Callable[[], Any], repeats: int) -> Dict[str, float]:
    """Call ``fn`` :data:`WARMUP` times, then time ``repeats`` calls (ms)."""
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(max(int(repeats), 1)):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return summarise(samples)


def environment() -> Dict[str, Any]:
    """Where a baseline was recorded: CPUs, BLAS, library versions, commit."""
    nproc = os.cpu_count() or 1
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    # OpenBLAS and OpenMP runtimes use one thread per CPU unless told otherwise.
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": int(threads) if threads and threads.isdigit() else nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_describe": describe or "unknown",
    }


# ----------------------------------------------------------- the shared fit
@dataclass
class SmokeFit:
    """A fitted model with the split it was trained and evaluated on."""

    model: AGNN
    task: Any
    history: Any
    result: Any


def smoke_fit(
    scale_name: str = "smoke", dataset: str = "ML-100K", scenario: str = "item_cold"
) -> SmokeFit:
    """The seeded fit + evaluate every suite and tripwire shares, at D=40."""
    scale = get_scale(scale_name)
    data = scale.datasets[dataset]()
    nn_init.seed(scale.seed)
    task = make_split(data, scenario, scale.split_fraction, seed=scale.seed)
    model = AGNN(replace(scale.agnn, embedding_dim=FIT_DIM), rng_seed=scale.seed)
    with telemetry.span("experiment"):
        history = model.fit(task, scale.train)
        result = model.evaluate(task)
    return SmokeFit(model, task, history, result)


@contextmanager
def smoke_bundle(fit: SmokeFit) -> Iterator[Path]:
    """Export ``fit`` to a throwaway bundle directory that lives for the block."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        yield export_bundle(fit.model, fit.task, Path(tmp) / "bundle", note="repro bench")


def metered_fit() -> Tuple[SmokeFit, Dict[str, Any]]:
    """:func:`smoke_fit` with telemetry and the autograd profiler on."""
    telemetry.reset()
    telemetry.reset_spans()
    with telemetry.enabled(), telemetry.AutogradProfiler():
        fit = smoke_fit()
        snap = telemetry.snapshot(
            note="repro bench training",
            extra_meta={"epochs_trained": fit.history.num_epochs},
        )
    return fit, snap


# ------------------------------------------------------------------ training
def _span_total(snap: Dict[str, Any], path: str) -> float:
    return float(snap["spans"].get(path, {}).get("total_s", 0.0))


def _graph_microbench(n: int, pool_size: int, repeats: int) -> Dict[str, Any]:
    attributes, ratings = synthetic_graph_inputs(n)
    proximity = combined_proximity(attributes, ratings)
    out: Dict[str, Any] = {
        "pool_reference_ms": timed(lambda: pool_reference(proximity, pool_size), repeats),
        "pool_vectorised_ms": timed(lambda: _pool_from_proximity(proximity, pool_size), repeats),
        "build_reference_ms": timed(lambda: build_reference(attributes, ratings, pool_size), repeats),
        "build_fused_ms": timed(lambda: build_fused(attributes, ratings, pool_size), repeats),
    }
    out["pool_speedup"] = out["pool_reference_ms"]["median"] / out["pool_vectorised_ms"]["median"]
    out["build_speedup"] = out["build_reference_ms"]["median"] / out["build_fused_ms"]["median"]
    return out


def _run_training(graph_n: int, graph_pool: int, graph_repeats: int):
    fit, snap = metered_fit()
    counters, gauges = snap["counters"], snap["gauges"]
    batches = int(counters.get("train.batches", 0))
    batch_total = _span_total(snap, "experiment/fit/epoch/batch")
    training = {
        "fit_s": _span_total(snap, "experiment/fit"),
        "epochs_trained": fit.history.num_epochs,
        "batches": batches,
        "batch_total_s": batch_total,
        "batches_per_sec": batches / batch_total if batch_total > 0 else 0.0,
        "graph_build_s": _span_total(snap, "experiment/fit/prepare/agnn.prepare/graph.build"),
        "encode_total_s": _span_total(snap, "experiment/fit/epoch/batch/agnn.encode"),
        "backward_total_s": _span_total(snap, "experiment/fit/epoch/batch/autograd.backward"),
        "resample_total_s": _span_total(snap, "experiment/fit/epoch/agnn.resample"),
        "predict_total_s": _span_total(snap, "experiment/predict"),
        "dedup_ratio": float(gauges.get("agnn.encode.dedup_ratio", 1.0)),
        "unique_nodes": int(counters.get("agnn.encode.unique_nodes", 0)),
        "total_nodes": int(counters.get("agnn.encode.total_nodes", 0)),
    }

    task = fit.task
    predictions = fit.model.predict(task.test_users, task.test_items)
    repeat = smoke_fit()
    bitwise = bool(np.array_equal(predictions, repeat.model.predict(task.test_users, task.test_items)))
    micro = _graph_microbench(graph_n, graph_pool, graph_repeats)

    metrics = {
        "rmse": fit.result.rmse,
        "mae": fit.result.mae,
        "epochs_trained": training["epochs_trained"],
        "batches_per_sec": training["batches_per_sec"],
        "fit_s": training["fit_s"],
        "dedup_ratio": training["dedup_ratio"],
        "repeat_runs_bitwise_equal": bitwise,
        "pool_speedup": micro["pool_speedup"],
        "build_speedup": micro["build_speedup"],
    }
    results = {
        "training": training,
        "determinism": {
            "repeat_runs_bitwise_equal": bitwise,
            "test_pairs": int(predictions.size),
            "rmse_repeat": repeat.result.rmse,
        },
        "graph_microbench": micro,
        "snapshot": snap,
    }
    return metrics, results, bitwise


# -------------------------------------------------------------------- graphs
def _fit_exponent(points: Sequence[Dict[str, Any]]) -> Optional[float]:
    """Log–log slope of median build time vs n (None below two points)."""
    if len(points) < 2:
        return None
    ns = np.array([point["n"] for point in points], dtype=np.float64)
    ms = np.array([point["build_ms"]["median"] for point in points], dtype=np.float64)
    return float(np.polyfit(np.log(ns), np.log(np.maximum(ms, 1e-6)), 1)[0])


def _build_curve(
    grid: Sequence[int], pool_size: int, strategy: str, repeats: int
) -> List[Dict[str, Any]]:
    points = []
    for n in grid:
        attributes, ratings = synthetic_inputs(n, attr_dim=60, num_ratings=120, seed=SEED)
        build = timed(
            lambda: build_graph_from_arrays(attributes, ratings, pool_size, candidate_strategy=strategy),
            repeats,
        )
        points.append({"n": int(n), "build_ms": build})
    return points


def _run_graphs(n_grid: Sequence[int], exact_grid: Sequence[int], pool_size: int, repeats: int):
    approx = _build_curve(n_grid, pool_size, "inverted", repeats)
    exact = _build_curve(exact_grid, pool_size, "exact", repeats)
    overlap = parity_sweep(floor=OVERLAP_FLOOR)
    aggregate = overlap["aggregate"]
    approx_exponent = _fit_exponent(approx)
    max_n = max(n_grid)
    scaling_ok = (
        approx_exponent is None or max_n < MIN_SCALING_N or approx_exponent <= SUBLINEAR_EXPONENT
    )
    metrics = {
        "approx_exponent": approx_exponent,
        "exact_exponent": _fit_exponent(exact),
        "max_n": int(max_n),
        "max_n_build_ms": approx[-1]["build_ms"]["median"],
        "mean_score_recall": aggregate["mean_score_recall"],
        "min_case_score_recall": aggregate["min_case_score_recall"],
    }
    results = {"approx": approx, "exact": exact, "overlap": overlap}
    return metrics, results, bool(aggregate["ok"] and scaling_ok)


# ------------------------------------------------------------------- serving
def _post(url: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _get(url: str) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _per_call_ms(
    engine: InferenceEngine, users: np.ndarray, items: np.ndarray, width: int = 1
) -> Dict[str, float]:
    """Latency of ``engine.score`` over consecutive ``width``-pair calls, each
    given id lists as a JSON body delivers them."""
    samples = []
    for lo in range(0, len(users) - width + 1, width):
        call_users, call_items = users[lo : lo + width].tolist(), items[lo : lo + width].tolist()
        start = time.perf_counter()
        engine.score(call_users, call_items)
        samples.append((time.perf_counter() - start) * 1e3)
    return summarise(samples)


def _engine_phase(fit: SmokeFit, bundle, pairs: int) -> Dict[str, Any]:
    """Offline parity, cold vs cached latency, onboarding, one HTTP round trip."""
    engine = InferenceEngine(bundle)
    count = min(pairs, len(fit.task.test_idx))
    users, items = fit.task.test_users[:count], fit.task.test_items[:count]
    offline = fit.model.predict(users, items)
    online = engine.predict_batch(users, items)
    cold = _per_call_ms(engine, users, items)  # every pair a cache miss ...
    cached = _per_call_ms(engine, users, items)  # ... then every pair a hit
    # The same on a fresh engine with WIDE_PAIRS-pair calls over distinct pairs.
    wide_engine = InferenceEngine(bundle)
    grid = np.random.default_rng(SEED).choice(
        wide_engine.num_users * wide_engine.num_items, size=WIDE_PAIRS * WIDE_CALLS, replace=False
    )
    wide_users, wide_items = np.divmod(grid, wide_engine.num_items)
    cold_wide = _per_call_ms(wide_engine, wide_users, wide_items, WIDE_PAIRS)
    cached_wide = _per_call_ms(wide_engine, wide_users, wide_items, WIDE_PAIRS)

    new_user = engine.add_user(bundle.user_attributes[0])
    new_item = engine.add_item(bundle.item_attributes[0])
    topn_items, topn_scores = engine.top_n(new_user, k=10)

    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.port}"
        health = _get(f"{base}/healthz")
        http_scores = _post(f"{base}/score", {"users": users[:8].tolist(), "items": items[:8].tolist()})
        _post(f"{base}/topn", {"user": int(users[0]), "k": 5})
        _post(f"{base}/users", {"attributes": bundle.user_attributes[1].tolist()})
        _get(f"{base}/metrics")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    return {
        "pairs": count,
        "max_abs_diff_vs_offline": float(np.max(np.abs(offline - online))) if count else 0.0,
        "score_cold_ms": cold,
        "score_cached_ms": cached,
        "cached_speedup": cold["median"] / max(cached["median"], 1e-9),
        "score_cold_100_ms": cold_wide,
        "score_cached_100_ms": cached_wide,
        "onboarded_user": int(new_user),
        "onboarded_item": int(new_item),
        "onboard_cross_score": float(engine.score([new_user], [new_item])[0]),
        "topn_size": int(len(topn_items)),
        "topn_best_score": float(topn_scores[0]) if len(topn_scores) else None,
        "http_health_users": int(health["users"]),
        "http_score_count": len(http_scores["scores"]),
    }


def _load_phase(
    bundle,
    bundle_dir: Path,
    concurrencies: Sequence[int],
    duration_s: float,
    rate_rps: float,
    pool_workers: Sequence[int],
    trace_requests: int,
    trace_rounds: int,
) -> Dict[str, Any]:
    """Direct vs coalesced scoring under load, the tracing phase, the pool sweep."""
    engine = InferenceEngine(bundle, cache_size=0)
    rng = np.random.default_rng(SEED)
    users = rng.integers(0, engine.num_users, size=4096).astype(np.int64)
    items = rng.integers(0, engine.num_items, size=4096).astype(np.int64)
    batching = BatchingEngine(engine, max_batch_pairs=MAX_BATCH_PAIRS, max_queue_depth=MAX_QUEUE_DEPTH)
    try:
        # Parity gate before any timing: the coalesced path must be bitwise
        # the direct path.  Chunks of 7 are deliberately awkward to fuse.
        parity_users, parity_items = users[:PARITY_PAIRS], items[:PARITY_PAIRS]
        direct_ref = engine.score(parity_users, parity_items)
        futures = [
            batching.submit_score(parity_users[lo : lo + 7], parity_items[lo : lo + 7])
            for lo in range(0, PARITY_PAIRS, 7)
        ]
        batched_ref = np.concatenate([future.result(60.0) for future in futures])
        closed: Dict[str, Dict[str, Any]] = {"direct": {}, "batched": {}}
        for concurrency in concurrencies:
            for mode, score in (("direct", engine.score), ("batched", batching.score)):
                closed[mode][str(concurrency)] = loadgen.closed_loop(
                    score, users, items, concurrency, duration_s, PAIRS_PER_REQUEST
                )
        open_loop = {
            mode: loadgen.open_loop(score, users, items, rate_rps, duration_s, PAIRS_PER_REQUEST)
            for mode, score in (("direct", engine.score), ("batched", batching.score))
        }
        stats = batching.stats()
    finally:
        batching.stop(drain=True)

    trace = loadgen.tracing_phase(engine, users, items, trace_requests, trace_rounds)
    trace["overhead_x"] = summarise(trace["round_overhead_x"])
    pool = loadgen.pool_phase(
        bundle_dir,
        engine,
        users,
        items,
        pool_workers,
        max(concurrencies),
        duration_s,
        PAIRS_PER_REQUEST,
        PARITY_PAIRS,
        MAX_BATCH_PAIRS,
        MAX_QUEUE_DEPTH,
    )
    counters = telemetry.get_registry().counters()
    return {
        "parity": {
            "ok": bool(np.array_equal(direct_ref, batched_ref)),
            "max_abs_diff": float(np.max(np.abs(direct_ref - batched_ref))),
            "pairs": PARITY_PAIRS,
        },
        "closed_loop": closed,
        "open_loop": open_loop,
        "batching": {
            "ticks": stats["ticks"],
            "coalesced_requests": stats["coalesced_requests"],
            "fallbacks": stats["fallbacks"],
            "shed": stats["shed"],
            "shed_counter": int(counters.get("serve.shed", 0)),
            "batch_pairs": loadgen.batch_distribution("serve.batch.size"),
            "queue_wait": loadgen.batch_distribution("serve.batch.wait"),
        },
        "tracing": trace,
        "pool": pool,
    }


def _run_serving(
    concurrencies: Sequence[int],
    duration_s: float,
    rate_rps: float,
    pool_workers: Sequence[int],
    latency_pairs: int,
    trace_requests: int,
    trace_rounds: int,
):
    fit = smoke_fit()
    telemetry.reset()
    telemetry.reset_spans()
    with telemetry.enabled(), smoke_bundle(fit) as bundle_dir:
        engine_phase = _engine_phase(fit, load_bundle(bundle_dir), latency_pairs)
        snap = telemetry.snapshot(note="repro bench serving")
        load = _load_phase(
            load_bundle(bundle_dir),
            bundle_dir,
            concurrencies,
            duration_s,
            rate_rps,
            pool_workers,
            trace_requests,
            trace_rounds,
        )

    top = str(max(concurrencies))
    direct, batched = load["closed_loop"]["direct"][top], load["closed_loop"]["batched"][top]
    pool = load["pool"]
    errors = sum(cell["errors"] for mode in load["closed_loop"].values() for cell in mode.values())
    metrics = {
        "offline_max_abs_diff": engine_phase["max_abs_diff_vs_offline"],
        "score_cold_p50_ms": engine_phase["score_cold_ms"]["median"],
        "score_cached_p50_ms": engine_phase["score_cached_ms"]["median"],
        "cached_speedup": engine_phase["cached_speedup"],
        "score_cold_100_p50_ms": engine_phase["score_cold_100_ms"]["median"],
        "score_cached_100_p50_ms": engine_phase["score_cached_100_ms"]["median"],
        "batched_max_abs_diff": load["parity"]["max_abs_diff"],
        "top_concurrency": int(top),
        "direct_throughput_rps": direct["throughput_rps"],
        "batched_throughput_rps": batched["throughput_rps"],
        "throughput_gain_x": (
            batched["throughput_rps"] / direct["throughput_rps"] if direct["throughput_rps"] else 0.0
        ),
        "direct_p99_ms": direct["p99_ms"],
        "batched_p99_ms": batched["p99_ms"],
        "p99_gain_x": direct["p99_ms"] / batched["p99_ms"] if batched["p99_ms"] else 0.0,
        "open_direct_p99_ms": load["open_loop"]["direct"]["p99_ms"],
        "open_batched_p99_ms": load["open_loop"]["batched"]["p99_ms"],
        "trace_overhead_x": load["tracing"]["overhead_x"]["median"],
        "pool_workers": max(pool["worker_counts"]),
        "pool_scaling_x": pool["scaling_x"],
        "pool_rss_growth_x": pool["rss_growth_x"],
        "errors": errors,
    }
    results = {"engine": engine_phase, "snapshot": snap, **load}
    ok = (
        engine_phase["max_abs_diff_vs_offline"] <= 1e-10
        and load["parity"]["ok"]
        and errors == 0
        and pool["ok"]
    )
    return metrics, results, ok


# ------------------------------------------------------------------- refresh
def _rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def _poison(model) -> Tuple[Any, np.ndarray]:
    """NaN one prediction-head weight; returns the parameter and its values."""
    param = next(iter(model.head.mlp.parameters()))
    saved = param.data.copy()
    param.data[...] = np.nan
    return param, saved


def _swap_under_load(
    engine_a: InferenceEngine,
    engine_b: InferenceEngine,
    threads: int,
    requests_per_thread: int,
    swaps: int,
) -> Dict[str, Any]:
    """Hammer scores through a BatchingEngine while generations hot-swap."""
    rng = np.random.default_rng(SEED)
    n_users = min(engine_a.num_users, engine_b.num_users)
    n_items = min(engine_a.num_items, engine_b.num_items)
    # A fixed request catalogue with per-generation oracles: a response is
    # valid iff it matches ONE generation bitwise.  The oracle assumes
    # pairwise_scores is batch-composition invariant, so that fused
    # execution changes nothing.
    catalogue = [
        (
            rng.integers(0, n_users, size=PAIRS_PER_REQUEST),
            rng.integers(0, n_items, size=PAIRS_PER_REQUEST),
        )
        for _ in range(32)
    ]
    oracles = [(engine_a.predict_batch(u, i), engine_b.predict_batch(u, i)) for u, i in catalogue]

    errors: List[str] = []
    mismatches = 0
    latencies: List[float] = []
    lock = threading.Lock()
    batching = BatchingEngine(engine_a, max_queue_depth=MAX_QUEUE_DEPTH)

    def worker(worker_id: int) -> None:
        nonlocal mismatches
        local_rng = np.random.default_rng(SEED + 1000 + worker_id)
        for _ in range(requests_per_thread):
            idx = int(local_rng.integers(0, len(catalogue)))
            users, items = catalogue[idx]
            started = time.perf_counter()
            try:
                scores = batching.score(users, items, timeout=30.0)
            except Exception as exc:  # noqa: BLE001 - every failure is a finding
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - started) * 1e3
            expect_a, expect_b = oracles[idx]
            ok = np.array_equal(scores, expect_a) or np.array_equal(scores, expect_b)
            with lock:
                latencies.append(elapsed_ms)
                if not ok:
                    mismatches += 1

    def swapper() -> None:
        flip = [engine_b, engine_a]
        for turn in range(swaps):
            batching.swap_engine(flip[turn % 2], timeout=30.0)
            time.sleep(0.005)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    swap_thread = threading.Thread(target=swapper)
    for thread in workers:
        thread.start()
    swap_thread.start()
    for thread in workers:
        thread.join()
    swap_thread.join()
    stats = batching.stats()
    batching.stop()

    submitted = threads * requests_per_thread
    return {
        "threads": threads,
        "requests": submitted,
        "completed": len(latencies),
        "dropped": submitted - len(latencies) - len(errors),
        "errors": len(errors),
        "error_samples": errors[:5],
        "mismatched_responses": mismatches,
        "swaps": stats["swaps"],
        "latency_ms": summarise(latencies or [0.0]),
    }


def _run_refresh(
    base_epochs: Optional[int],
    refresh_epochs: Optional[int],
    swap_threads: int,
    swap_requests: int,
    swaps: int,
    min_speedup: float,
    max_rmse_ratio: Optional[float],
):
    scale = get_scale("smoke")
    base_train = scale.train
    if base_epochs is not None:
        base_train = replace(base_train, epochs=base_epochs, patience=None, validation_fraction=0.0)
    refresh_config = DEFAULT_REFRESH_CONFIG
    if refresh_epochs is not None:
        refresh_config = replace(refresh_config, epochs=refresh_epochs)
    base, stream = simulate_stream(
        scale.datasets["ML-100K"](),
        interaction_fraction=0.1,
        new_user_fraction=0.05,
        new_item_fraction=0.05,
        seed=SEED,
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        store = BundleStore(Path(tmp) / "store")

        # generation 1: the base fit
        nn_init.seed(scale.seed)
        base_task = warm_split(base, scale.split_fraction, seed=scale.seed)
        base_model = AGNN(scale.agnn, rng_seed=scale.seed)
        started = time.perf_counter()
        base_model.fit(base_task, base_train)
        base_fit_s = time.perf_counter() - started
        store.publish(base_model, base_task, note="repro bench base fit")
        bundle = store.load()

        # the warm-started refresh
        nn_init.seed(scale.seed)
        warm_model = AGNN()
        started = time.perf_counter()
        warm_history = warm_model.fit_incremental(
            bundle,
            stream.interactions,
            new_users=stream.new_user_attributes,
            new_items=stream.new_item_attributes,
            config=refresh_config,
        )
        warm_fit_s = time.perf_counter() - started
        task = warm_model.task
        warm_rmse = _rmse(warm_model.predict(task.test_users, task.test_items), task.test_ratings)

        # a from-scratch fit on the identical combined task
        scratch_task = build_refresh_task(
            bundle,
            stream.interactions,
            new_users=stream.new_user_attributes,
            new_items=stream.new_item_attributes,
            seed=refresh_config.seed,
        )
        if not np.array_equal(scratch_task.test_idx, task.test_idx):
            raise RuntimeError("warm and scratch refresh tasks disagree on the holdout")
        nn_init.seed(scale.seed)
        scratch_model = AGNN(scale.agnn, rng_seed=scale.seed)
        started = time.perf_counter()
        scratch_history = scratch_model.fit(scratch_task, base_train)
        scratch_fit_s = time.perf_counter() - started
        scratch_rmse = _rmse(
            scratch_model.predict(scratch_task.test_users, scratch_task.test_items),
            scratch_task.test_ratings,
        )

        decision = evaluate_promotion(warm_model, task, bundle)
        store.publish(
            warm_model,
            task,
            note="repro bench warm refresh",
            parent_version=bundle.version,
            metrics={"eval_rmse": warm_rmse},
        )

        engine_a = InferenceEngine(store.load(1), cache_size=0)
        engine_b = InferenceEngine(store.load(2), cache_size=0)
        swap = _swap_under_load(engine_a, engine_b, swap_threads, swap_requests, swaps)

        # the rejection paths
        param, saved = _poison(warm_model)
        warm_model._invalidate_inference_cache()
        gate_decision = evaluate_promotion(warm_model, task, bundle)
        param.data[...] = saved
        warm_model._invalidate_inference_cache()

        poisoned_bundle = store.load(2)
        _poison(poisoned_bundle.model)
        swap_rejected = False
        with BatchingEngine(engine_a) as batching:
            try:
                swap_bundle(batching, poisoned_bundle, cache_size=0)
            except SwapValidationError:
                swap_rejected = True
            old_engine_kept = batching.engine is engine_a

    speedup = scratch_fit_s / warm_fit_s if warm_fit_s > 0 else float("inf")
    rmse_ratio = warm_rmse / scratch_rmse if scratch_rmse > 0 else float("inf")
    rejection = {
        "gate_rejected": not gate_decision.accepted,
        "gate_reasons": gate_decision.reasons,
        "swap_rejected": swap_rejected,
        "old_engine_kept": old_engine_kept,
    }
    correctness_ok = (
        swap["errors"] == 0
        and swap["mismatched_responses"] == 0
        and swap["dropped"] == 0
        and swap["swaps"] > 0
        and rejection["gate_rejected"]
        and rejection["swap_rejected"]
        and rejection["old_engine_kept"]
        and decision.accepted
    )
    perf_ok = speedup >= min_speedup and (max_rmse_ratio is None or rmse_ratio <= max_rmse_ratio)
    metrics = {
        "speedup_x": speedup,
        "warm_fit_s": warm_fit_s,
        "scratch_fit_s": scratch_fit_s,
        "rmse_ratio": rmse_ratio,
        "warm_rmse": warm_rmse,
        "scratch_rmse": scratch_rmse,
        "swap_requests": swap["requests"],
        "swap_errors": swap["errors"],
        "swap_mismatches": swap["mismatched_responses"],
        "swap_p50_ms": swap["latency_ms"]["median"],
    }
    results = {
        "data": {
            "base": {
                "users": base.num_users,
                "items": base.num_items,
                "interactions": base.num_ratings,
                "fit_s": base_fit_s,
            },
            "stream": {
                "interactions": int(len(stream.ratings)),
                "new_users": int(stream.new_user_attributes.shape[0]),
                "new_items": int(stream.new_item_attributes.shape[0]),
            },
        },
        "refresh": {
            "warm_fit_s": warm_fit_s,
            "scratch_fit_s": scratch_fit_s,
            "speedup_x": speedup,
            "warm_rmse": warm_rmse,
            "scratch_rmse": scratch_rmse,
            "rmse_ratio": rmse_ratio,
            "warm_epochs": warm_history.num_epochs,
            "scratch_epochs": scratch_history.num_epochs,
            "holdout_pairs": int(len(task.test_idx)),
            "promotion_accepted": decision.accepted,
            "promotion_reasons": decision.reasons,
        },
        "swap": swap,
        "rejection": rejection,
    }
    return metrics, results, bool(correctness_ok and perf_ok)


# -------------------------------------------------------------------- runner
SUITES: Dict[str, Callable[..., Tuple[Dict[str, Any], Dict[str, Any], bool]]] = {
    "training": _run_training,
    "graphs": _run_graphs,
    "serving": _run_serving,
    "refresh": _run_refresh,
}


def default_output(suite: str, check: bool) -> Optional[str]:
    """The committed baseline path a run writes when not told otherwise.

    A ``check`` run never overwrites the committed baseline by default.
    """
    return None if check else f"BENCH_{suite}.json"


def run_suite(suite: str, check: bool = False, output: Optional[str] = None) -> Dict[str, Any]:
    """Run one suite at its ``full`` (or ``check``) preset; write ``output`` if given."""
    preset = "check" if check else "full"
    config = PRESETS[suite][preset]
    metrics, results, ok = SUITES[suite](**config)
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "preset": preset,
        "env": environment(),
        "config": config,
        "metrics": metrics,
        "results": results,
        "ok": bool(ok),
    }
    # Round-trip so the returned envelope equals the file (tuples → lists).
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    return json.loads(text)


def render(envelope: Dict[str, Any]) -> str:
    """One line per metric, under a header naming the suite, preset and env."""
    env = envelope["env"]
    lines = [
        f"repro bench {envelope['suite']} [{envelope['preset']}]: "
        + ("ok" if envelope["ok"] else "FAILED"),
        f"  env: {env['nproc']} cpu, {env['blas']} x{env['blas_threads']}, "
        f"numpy {env['numpy']}, python {env['python']}, {env['git_describe']}",
    ]
    width = max((len(name) for name in envelope["metrics"]), default=0)
    for name, value in sorted(envelope["metrics"].items()):
        text = f"{value:.4g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {text}")
    return "\n".join(lines)
