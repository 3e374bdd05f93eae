"""The serving benchmark's one command.

    python3 perfbench/run.py --workload rerank --seed 1 --seconds 10 --trace 0

Builds the catalogue from source (generate, fit, export with mapped state),
starts the serving stack as shipped, drives one workload, checks every
sampled answer against an in-process oracle, and prints as its last line a
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``
(a traced run also repeats the workload untraced to measure the tracing
overhead).  The lines before it are a JSON report: environment fingerprint,
per-phase request counts and the oracle's findings.  ``--smoke`` shrinks
the catalogue and the run for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rerank", "coldstart")
#: the operation whose latency each workload is about
MAIN_OP = {"rerank": "score", "coldstart": "topn"}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny catalogue and short run (the benchmark's own tests)")
    return parser.parse_args(argv)


def _run_workload(name: str, catalogue, seed: int, seconds: float, traced: bool,
                  work: Path, smoke: bool):
    from perfbench import workloads

    runner = {"rerank": workloads.run_rerank, "coldstart": workloads.run_coldstart}[name]
    return runner(catalogue.bundle_dir, seed, seconds, catalogue.num_users,
                  catalogue.num_items, traced, work, smoke)


def _e2e(result, setup_s: float, test_rmse: float) -> Dict[str, Dict[str, Any]]:
    from perfbench.common import percentile

    def lat(op: str, q: float) -> float:
        return percentile(result.latencies[op], q) * 1e3

    attempted = sum(p.sent for p in result.phases)
    bad = sum(p.failed + p.shed for p in result.phases) + result.wrong
    values = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (result.measured_ops / result.measured_s, "1/s"),
        "score_p50_ms": (lat("score", 0.5), "ms"),
        "score_p90_ms": (lat("score", 0.90), "ms"),
        "topn_p50_ms": (lat("topn", 0.5), "ms"),
        "topn_p90_ms": (lat("topn", 0.90), "ms"),
        "onboard_p50_ms": (lat("onboard", 0.5), "ms"),
        "onboard_p90_ms": (lat("onboard", 0.90), "ms"),
        "success_rate": (1.0 - bad / max(attempted, 1), "ratio"),
        "memory_mb": (result.memory_mb, "MB"),
        "test_rmse": (test_rmse, "rmse"),
    }
    return {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}


def _layers(name: str, plain, traced, timings: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced run (see README.md for definitions)."""
    from perfbench.common import median, percentile

    main = MAIN_OP[name]
    L = traced.layers
    replay = L["replay"]
    e2e_traced = median(traced.latencies[main])
    e2e_plain = median(plain.latencies[main])

    # Head calls on the main operation's path: the oracle's replays of the
    # workload's own requests (score: 100 rows, top-N: the whole catalogue).
    head_s = median(replay.get(f"head_{main}", []))
    head_rows = replay.get(f"head_rows_{main}", [])

    ticks = max(L["ticks"], 1)
    tick_self = L["tick_self_total"] / ticks
    queue_wait = median(L["queue_wait"])
    lookups = L["cache_hits"] + L["cache_misses"]
    evae = replay.get("generate_cold_preference", [])
    raw = replay.get("raw_node_embeddings", [])
    refine = replay.get("refine_node_embeddings", [])
    adds, splices = replay.get("add", []), replay.get("splice", [])
    grow = [a - e - r - f - s for a, e, r, f, s in zip(adds, evae, raw, refine, splices)]

    engine_score = median(L["engine_score"])
    engine_main = engine_score if main == "score" else median(L["engine_topn"])
    engine_onboard = median(L["engine_onboard"])
    server_self = median(L["server_self"][main])
    dispatch = median(L["backend"][main]) - queue_wait - engine_main - tick_self
    broadcast = median(L["broadcast"]) - engine_onboard if L["broadcast"] else 0.0
    attributed = server_self + dispatch + queue_wait + tick_self + engine_main

    attempted = sum(p.sent for p in plain.phases + traced.phases)
    bad = (sum(p.failed + p.shed for p in plain.phases + traced.phases)
           + plain.wrong + traced.wrong)
    values = {
        "server.self_ms": (server_self * 1e3, "ms"),
        "pool.dispatch_ms": (dispatch * 1e3, "ms"),
        "pool.broadcast_ms": (broadcast * 1e3, "ms"),
        "pool.worker_share_max": (L["worker_share_max"], "ratio"),
        "pool.respawns": (L["respawns"], "count"),
        "batching.queue_wait_ms": (queue_wait * 1e3, "ms"),
        "batching.queue_wait_p99_ms": (percentile(L["queue_wait"], 0.99) * 1e3, "ms"),
        "batching.requests_per_tick": (L["tick_requests"] / ticks, "req/tick"),
        "batching.pairs_per_tick": (L["pairs"] / ticks, "pairs/tick"),
        "batching.tick_ms": (median(L["tick"]) * 1e3, "ms"),
        "batching.shed": (L["shed"], "count"),
        "batching.fallbacks": (L["fallbacks"], "count"),
        "engine.score_ms": (engine_score * 1e3, "ms"),
        "engine.topn_ms": (median(L["engine_topn"]) * 1e3, "ms"),
        "engine.onboard_ms": (engine_onboard * 1e3, "ms"),
        "engine.grow_ms": (median(grow) * 1e3, "ms"),
        "engine.cache_hit_ratio": (L["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "model.head_ms": (head_s * 1e3, "ms"),
        "model.head_rows": (median(head_rows), "rows"),
        "model.evae_ms": (median(evae) * 1e3, "ms"),
        "model.refine_ms": (median(refine) * 1e3, "ms"),
        "onboarding.splice_ms": (median(splices) * 1e3, "ms"),
        "setup.data_s": (timings["data"], "s"),
        "setup.fit_s": (timings["fit"], "s"),
        "setup.export_s": (timings["export"], "s"),
        "setup.start_s": (plain.start_s, "s"),
        "mapped.pss_mb": (plain.mapped_mb, "MB"),
        "unattributed_ms": ((e2e_traced - attributed) * 1e3, "ms"),
        "trace.overhead_ratio": (e2e_traced / e2e_plain if e2e_plain else 0.0, "ratio"),
        "error_rate": (bad / max(attempted, 1), "ratio"),
    }
    return {key: {"value": float(value), "unit": unit} for key, (value, unit) in values.items()}


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program's sources (src/repro) are not here; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalogue as catalogue_mod
    from perfbench.common import WORK_DIR, fingerprint
    from perfbench.workloads import workers_for_host

    work = WORK_DIR / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        cat = catalogue_mod.build(work / "bundle", smoke=args.smoke)
        plain = _run_workload(args.workload, cat, args.seed, args.seconds, False, work, args.smoke)
        report: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "environment": fingerprint(),
            "pool_workers": workers_for_host(),
            "setup_s": {**cat.timings, "start": plain.start_s},
            "latency_samples": {op: len(v) for op, v in plain.latencies.items()},
            "phases": [p.as_dict() for p in plain.phases], "wrong": plain.wrong,
            "notes": plain.notes,
        }
        results = [plain]
        if args.trace:
            traced = _run_workload(args.workload, cat, args.seed, args.seconds, True, work, args.smoke)
            results.append(traced)
            report["traced_phases"] = [p.as_dict() for p in traced.phases]
            report["traced_wrong"] = traced.wrong
            metrics = _layers(args.workload, plain, traced, cat.timings)
        else:
            setup_s = sum(cat.timings.values()) + plain.start_s
            metrics = _e2e(plain, setup_s, cat.test_rmse)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.sent for r in results for p in r.phases)
    wrong = sum(r.wrong for r in results)
    failed = sum(p.failed + p.shed for r in results for p in r.phases) + wrong
    print(json.dumps(report, default=float))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
