"""Command-line interface: train and evaluate any model on any scenario.

Examples:

    python -m repro.cli run --model AGNN --dataset ML-100K --scenario item_cold
    python -m repro.cli run --model DropoutNet --scenario user_cold --scale smoke --json
    python -m repro.cli run --model AGNN --seeds 0 1 2 --scenario item_cold
    python -m repro.cli list-models
    python -m repro.cli datasets --scale bench
    python -m repro.cli export-bundle --scale smoke --output bundles/agnn
    python -m repro.cli serve --bundle bundles/agnn --port 8080
    python -m repro.cli trace --bundle bundles/agnn --workers 2 --output trace.json
    python -m repro.cli refresh --store bundles/store
    python -m repro.cli bench training             # writes BENCH_training.json
    python -m repro.cli bench serving --check      # the tripwires' quick preset
    python -m repro.cli verify --fuzz-iterations 200
    python -m repro.cli verify --update-goldens --skip fuzz invariants
    python -m repro.cli report                      # smoke fit + health report
    python -m repro.cli report --events run.jsonl   # report on a recorded run
    python -m repro.cli report --json

The heavy lifting lives in ``repro.experiments``; this is a thin, scriptable
front end that prints either human-readable text or machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .baselines import BASELINES, make_baseline
from .bench import SUITES, default_output, render, run_suite
from .core import ALL_VARIANTS, AGNN, agnn_variant
from .experiments.configs import get_scale
from .experiments.replicates import run_replicates
from .experiments.runner import run_model
from .serving.engine import DEFAULT_CACHE_SIZE
from .train import Recommender, TrainConfig

__all__ = ["main", "build_parser", "available_models", "model_factory"]


def available_models() -> list[str]:
    """All runnable model names: AGNN variants + the twelve baselines."""
    return sorted(set(ALL_VARIANTS) | set(BASELINES))


def model_factory(name: str, scale) -> Callable[[], Recommender]:
    """Factory for any model name, configured at the given scale."""
    if name in ALL_VARIANTS:
        return lambda: agnn_variant(name, scale.agnn, seed=scale.seed)
    if name in BASELINES:
        return lambda: make_baseline(name, embedding_dim=scale.baseline_dim)
    raise KeyError(f"unknown model {name!r}; see `repro.cli list-models`")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="train + evaluate one model")
    run.add_argument("--model", required=True, help="model name (see list-models)")
    run.add_argument("--dataset", default="ML-100K", choices=["ML-100K", "ML-1M", "Yelp"])
    run.add_argument("--scenario", default="item_cold", choices=["warm", "item_cold", "user_cold"])
    run.add_argument("--scale", default="smoke", choices=["paper", "bench", "smoke"])
    run.add_argument("--seeds", type=int, nargs="+", default=None,
                     help="run several seeds and report mean±std")
    run.add_argument("--epochs", type=int, default=None, help="override the scale's epoch count")
    run.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    commands.add_parser("list-models", help="list every runnable model name")

    datasets = commands.add_parser("datasets", help="show Table-1 statistics at a scale")
    datasets.add_argument("--scale", default="smoke", choices=["paper", "bench", "smoke"])

    bench = commands.add_parser(
        "bench",
        help="run one benchmark suite at its full preset and write BENCH_<suite>.json",
    )
    bench.add_argument("suite", choices=sorted(SUITES), help="which suite to run")
    bench.add_argument("--check", action="store_true",
                       help="the seconds-scale preset the tripwires run "
                       "(writes a file only with --output)")
    bench.add_argument("--output", default=None,
                       help="envelope path (default: BENCH_<suite>.json for the "
                       "full preset; '-' skips writing)")
    bench.add_argument("--json", action="store_true",
                       help="print the envelope JSON instead of the summary")

    export = commands.add_parser(
        "export-bundle",
        help="train an AGNN variant and export a self-contained serving bundle",
    )
    export.add_argument("--model", default="AGNN", choices=sorted(ALL_VARIANTS),
                        help="AGNN variant to bundle (bundles are AGNN-specific)")
    export.add_argument("--dataset", default="ML-100K", choices=["ML-100K", "ML-1M", "Yelp"])
    export.add_argument("--scenario", default="item_cold", choices=["warm", "item_cold", "user_cold"])
    export.add_argument("--scale", default="smoke", choices=["paper", "bench", "smoke"])
    export.add_argument("--epochs", type=int, default=None, help="override the scale's epoch count")
    export.add_argument("--output", required=True, help="bundle directory to create")
    export.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    serve = commands.add_parser("serve", help="serve a bundle over HTTP (JSON endpoints)")
    serve.add_argument("--bundle", required=True, help="bundle directory from export-bundle")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks an ephemeral port")
    serve.add_argument("--cache-size", type=int, default=DEFAULT_CACHE_SIZE,
                       help="LRU score-cache capacity in (user, item) pairs")
    serve.add_argument("--verbose", action="store_true", help="log each HTTP request")
    serve.add_argument("--no-batching", action="store_true",
                       help="serve each request directly instead of through the "
                       "request-coalescing BatchingEngine")
    serve.add_argument("--tick-interval", type=float, default=0.0,
                       help="coalescing window in seconds; 0 drains adaptively "
                       "with no added wait (batching mode)")
    serve.add_argument("--max-batch-pairs", type=int, default=8192,
                       help="pair budget per coalesced tick (batching mode)")
    serve.add_argument("--max-queue-depth", type=int, default=1024,
                       help="queued requests before shedding with 429 (batching mode)")
    serve.add_argument("--workers", type=int, default=1,
                       help="serving processes; >1 starts a WorkerPool over "
                       "mmap-shared bundle state (each worker runs its own "
                       "in-process coalescing engine)")

    trace_cmd = commands.add_parser(
        "trace",
        help="drive a bundle through the pool-backed HTTP server and export a "
        "Chrome trace-event JSON (open in Perfetto or chrome://tracing)",
    )
    trace_cmd.add_argument("--bundle", required=True,
                           help="bundle directory from export-bundle")
    trace_cmd.add_argument("--workers", type=int, default=2,
                           help="serving processes in the WorkerPool")
    trace_cmd.add_argument("--requests", type=int, default=8,
                           help="scoring requests to drive through the fleet")
    trace_cmd.add_argument("--pairs", type=int, default=16,
                           help="candidate pairs scored per request")
    trace_cmd.add_argument("--seed", type=int, default=0, help="workload seed")
    trace_cmd.add_argument("--output", default="trace.json",
                           help="Chrome trace path ('-' prints to stdout)")

    refresh = commands.add_parser(
        "refresh",
        help="one turn of the continuous-learning loop: warm-start the store's "
        "latest bundle on a simulated stream, gate, publish, report",
    )
    refresh.add_argument("--store", required=True, help="BundleStore directory (created if empty)")
    refresh.add_argument("--dataset", default="ML-100K", choices=["ML-100K", "ML-1M", "Yelp"])
    refresh.add_argument("--scale", default="smoke", choices=["paper", "bench", "smoke"])
    refresh.add_argument("--epochs", type=int, default=None,
                         help="refresh epochs (default: the live DEFAULT_REFRESH_CONFIG)")
    refresh.add_argument("--interaction-fraction", type=float, default=0.1,
                         help="fraction of warm interactions simulated as new feedback")
    refresh.add_argument("--new-user-fraction", type=float, default=0.05,
                         help="fraction of users simulated as post-launch arrivals")
    refresh.add_argument("--new-item-fraction", type=float, default=0.05,
                         help="fraction of items simulated as post-launch arrivals")
    refresh.add_argument("--seed", type=int, default=0, help="stream simulation seed")
    refresh.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    verify = commands.add_parser(
        "verify",
        help="pre-merge correctness gate: autograd fuzzing + golden baselines + invariant sweep",
    )
    verify.add_argument("--fuzz-iterations", type=int, default=200,
                        help="random op graphs to check against finite differences")
    verify.add_argument("--seed", type=int, default=0, help="fuzzing campaign seed")
    verify.add_argument("--rtol", type=float, default=1e-4,
                        help="finite-difference relative tolerance")
    verify.add_argument("--goldens-dir", default=None,
                        help="golden baseline directory (default: tests/goldens)")
    verify.add_argument("--update-goldens", action="store_true",
                        help="regenerate the golden files instead of comparing against them")
    verify.add_argument("--skip", nargs="+", default=None, choices=["fuzz", "goldens", "invariants"],
                        help="stages to skip")
    verify.add_argument("--json", action="store_true", help="emit the full report as JSON")

    report = commands.add_parser(
        "report",
        help="unified health report: run events + monitors + serving latency + BENCH deltas",
    )
    report.add_argument("--events", default=None,
                        help="JSONL event log to report on (default: run a fresh "
                        "monitored smoke fit + serving exercise)")
    report.add_argument("--bench-dir", default=".",
                        help="directory holding the committed BENCH_*.json baselines")
    report.add_argument("--dataset", default="ML-100K", choices=["ML-100K", "ML-1M", "Yelp"])
    report.add_argument("--scenario", default="item_cold", choices=["warm", "item_cold", "user_cold"])
    report.add_argument("--scale", default="smoke", choices=["paper", "bench", "smoke"])
    report.add_argument("--json", action="store_true", help="emit the report as JSON (CI)")
    return parser


def _command_run(args) -> int:
    scale = get_scale(args.scale)
    train_config = scale.train
    if args.epochs is not None:
        train_config = TrainConfig(
            epochs=args.epochs,
            batch_size=train_config.batch_size,
            learning_rate=train_config.learning_rate,
            patience=train_config.patience,
        )
    dataset = scale.datasets[args.dataset]()
    factory = model_factory(args.model, scale)

    if args.seeds:
        result = run_replicates(factory, dataset, args.scenario, scale,
                                seeds=args.seeds, train_config=train_config)
        payload = {
            "model": result.model_name,
            "dataset": args.dataset,
            "scenario": args.scenario,
            "seeds": list(args.seeds),
            "rmse_mean": result.rmse_mean,
            "rmse_std": result.rmse_std,
            "mae_mean": result.mae_mean,
        }
        text = f"{args.dataset}/{args.scenario}: {result}"
    else:
        fit = run_model(factory, dataset, args.scenario, scale, train_config=train_config)
        payload = {
            "model": fit.model_name,
            "dataset": args.dataset,
            "scenario": args.scenario,
            "rmse": fit.result.rmse,
            "mae": fit.result.mae,
            "epochs_trained": fit.history.num_epochs,
        }
        text = f"{args.dataset}/{args.scenario} {fit.model_name}: {fit.result}"

    print(json.dumps(payload, indent=2) if args.json else text)
    return 0


def _command_list_models(_args) -> int:
    for name in available_models():
        kind = "AGNN variant" if name in ALL_VARIANTS else "baseline"
        print(f"{name:<14} {kind}")
    return 0


def _command_datasets(args) -> int:
    from .experiments import table1

    print(table1.render(table1.run_table1(get_scale(args.scale))))
    return 0


def _command_bench(args) -> int:
    output = args.output or default_output(args.suite, args.check)
    envelope = run_suite(args.suite, check=args.check, output=None if output == "-" else output)
    print(json.dumps(envelope, indent=2, sort_keys=True) if args.json else render(envelope))
    if output not in (None, "-"):
        print(f"\nwrote {output}")
    return 0 if envelope["ok"] else 1


def _command_export_bundle(args) -> int:
    from .data import make_split
    from .nn import init as nn_init
    from .serving import export_bundle

    scale = get_scale(args.scale)
    train_config = scale.train
    if args.epochs is not None:
        from dataclasses import replace

        train_config = replace(train_config, epochs=args.epochs)
    dataset = scale.datasets[args.dataset]()

    nn_init.seed(scale.seed)
    task = make_split(dataset, args.scenario, scale.split_fraction, seed=scale.seed)
    model = model_factory(args.model, scale)()
    history = model.fit(task, train_config)
    result = model.evaluate()
    path = export_bundle(
        model,
        task,
        args.output,
        note=f"{args.model} {args.dataset}/{args.scenario}",
        mapped=True,
    )

    payload = {
        "bundle": str(path),
        "model": args.model,
        "dataset": args.dataset,
        "scenario": args.scenario,
        "epochs_trained": history.num_epochs,
        "rmse": result.rmse,
        "mae": result.mae,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"trained {args.model} on {args.dataset}/{args.scenario}: {result}")
        print(f"wrote bundle to {path}")
    return 0


def _command_serve(args) -> int:
    from .serving import (
        BatchingEngine,
        InferenceEngine,
        WorkerPool,
        load_bundle,
        make_server,
        serve_forever,
    )

    if args.workers < 1:
        print("--workers must be positive", file=sys.stderr)
        return 2
    if args.workers > 1:
        pool = WorkerPool(
            args.bundle,
            workers=args.workers,
            cache_size=args.cache_size,
            max_batch_pairs=args.max_batch_pairs,
            max_queue_depth=args.max_queue_depth,
            tick_interval=args.tick_interval,
        )
        server = make_server(
            host=args.host, port=args.port, verbose=args.verbose, pool=pool
        )
        health = pool.healthz()
        first = next((w for w in health["workers"] if w.get("responsive")), {})
        print(
            f"serving bundle {args.bundle} from {args.workers} workers "
            f"(pids {pool.worker_pids()}) — {first.get('users', '?')} users, "
            f"{first.get('items', '?')} items, mmap-shared state"
        )
        mode = f"worker pool ({args.workers} processes, per-worker coalescing)"
        print(f"listening on http://{args.host}:{server.port}  [{mode}]  (Ctrl-C to stop)")
        serve_forever(server)
        return 0

    bundle = load_bundle(args.bundle)
    engine = InferenceEngine(bundle, cache_size=args.cache_size)
    batching = None
    if not args.no_batching:
        batching = BatchingEngine(
            engine,
            max_batch_pairs=args.max_batch_pairs,
            max_queue_depth=args.max_queue_depth,
            tick_interval=args.tick_interval,
        )
    server = make_server(
        engine, host=args.host, port=args.port, verbose=args.verbose, batching=batching
    )
    manifest = bundle.manifest
    print(
        f"serving {manifest['model_name']} ({manifest['dataset']['name']}/"
        f"{manifest['dataset']['scenario']}) — {engine.num_users} users, "
        f"{engine.num_items} items"
    )
    if batching is None:
        mode = "direct (no batching)"
    else:
        window = (
            "adaptive drain"
            if args.tick_interval == 0
            else f"tick {args.tick_interval * 1e3:g}ms"
        )
        mode = f"coalescing ({window}, queue {args.max_queue_depth})"
    print(f"listening on http://{args.host}:{server.port}  [{mode}]  (Ctrl-C to stop)")
    serve_forever(server)
    return 0


def _command_trace(args) -> int:
    import threading
    import urllib.request

    import numpy as np

    from .serving import WorkerPool, make_server
    from .telemetry import metrics as telemetry_metrics
    from .telemetry import tracing

    telemetry_metrics.reset()
    tracing.reset_spans()
    with telemetry_metrics.enabled():
        with WorkerPool(args.bundle, workers=args.workers, cache_size=0) as pool:
            health = pool.healthz()
            shape = next((w for w in health["workers"] if w.get("responsive")), {})
            num_users = int(shape.get("users", 1))
            num_items = int(shape.get("items", 1))
            server = make_server(pool=pool, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{server.port}"
            trace_ids = []
            try:
                rng = np.random.default_rng(args.seed)
                for _ in range(args.requests):
                    payload = json.dumps({
                        "users": rng.integers(0, num_users, size=args.pairs).tolist(),
                        "items": rng.integers(0, num_items, size=args.pairs).tolist(),
                    }).encode("utf-8")
                    request = urllib.request.Request(
                        f"{base}/score", data=payload,
                        headers={"Content-Type": "application/json"}, method="POST",
                    )
                    with urllib.request.urlopen(request, timeout=60) as response:
                        response.read()
                        trace_ids.append(response.headers.get("X-Trace-ID", ""))
                with urllib.request.urlopen(f"{base}/trace.json", timeout=60) as response:
                    raw = response.read().decode("utf-8")
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    trace = json.loads(raw)
    slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    pids = sorted({e["pid"] for e in slices})
    if args.output == "-":
        print(raw)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(raw)
        print(
            f"drove {args.requests} request(s) ({len(set(filter(None, trace_ids)))} "
            f"traces) through {args.workers} worker(s)"
        )
        print(
            f"wrote {args.output}: {len(slices)} span slices across "
            f"{len(pids)} processes, {trace['metadata']['span_dropped']} dropped "
            "— open in https://ui.perfetto.dev or chrome://tracing"
        )
    return 0


def _command_refresh(args) -> int:
    from dataclasses import replace

    from .data import warm_split
    from .live import DEFAULT_REFRESH_CONFIG, BundleStore, run_refresh, simulate_stream
    from .nn import init as nn_init

    scale = get_scale(args.scale)
    data = scale.datasets[args.dataset]()
    base, stream = simulate_stream(
        data,
        interaction_fraction=args.interaction_fraction,
        new_user_fraction=args.new_user_fraction,
        new_item_fraction=args.new_item_fraction,
        seed=args.seed,
    )
    store = BundleStore(args.store)
    if store.latest_version is None:
        # Bootstrap generation 1: a base fit on the pre-stream slice.
        nn_init.seed(scale.seed)
        base_task = warm_split(base, scale.split_fraction, seed=scale.seed)
        base_model = AGNN(scale.agnn, rng_seed=scale.seed)
        base_model.fit(base_task, scale.train)
        version = store.publish(base_model, base_task, note=f"base fit {args.dataset}")
        print(f"bootstrapped store with base generation v{version}")

    config = DEFAULT_REFRESH_CONFIG
    if args.epochs is not None:
        config = replace(config, epochs=args.epochs)
    result = run_refresh(
        store,
        stream.interactions,
        new_users=stream.new_user_attributes,
        new_items=stream.new_item_attributes,
        config=config,
        note=f"refresh from simulated stream ({stream.describe()})",
    )
    payload = {
        "accepted": result.accepted,
        "version": result.version,
        "parent_version": result.parent_version,
        "epochs": result.epochs,
        "reasons": result.reasons,
        "rmse": result.decision.rmse,
        "parent_warm_rmse": result.decision.baseline_rmse,
        "warm_rmse": result.decision.warm_rmse,
        "stream": stream.describe(),
        "store": str(store.root),
        "lineage": [
            {"version": link["version"], "parent": link["parent"], "note": link["note"]}
            for link in store.lineage()
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    elif result.accepted:
        print(f"refresh accepted: v{result.parent_version} -> v{result.version} "
              f"({result.epochs} epochs on {stream.describe()})")
        if result.decision.rmse is not None:
            print(f"holdout rmse {result.decision.rmse:.4f}"
                  + (f" (parent warm {result.decision.baseline_rmse:.4f})"
                     if result.decision.baseline_rmse is not None else ""))
        print("lineage: " + " -> ".join(f"v{link['version']}" for link in reversed(store.lineage())))
    else:
        print(f"refresh REJECTED; store stays at v{result.parent_version}")
        for reason in result.reasons:
            print(f"  - {reason}")
    return 0 if result.accepted else 1


def _command_verify(args) -> int:
    from .verify import run_verify

    report = run_verify(
        fuzz_iterations=args.fuzz_iterations,
        seed=args.seed,
        rtol=args.rtol,
        goldens_dir=args.goldens_dir,
        update_goldens_flag=args.update_goldens,
        skip=args.skip,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for stage in report["stages"].values():
            print(stage["summary"])
        for name in report["skipped"]:
            print(f"{name}: skipped")
        print("verify:", "OK" if report["ok"] else "FAILED")
    return 0 if report["ok"] else 1


def _command_report(args) -> int:
    from .telemetry.events import read_events
    from .telemetry.report import build_report, render_report, run_smoke_report

    if args.events is not None:
        report = build_report(read_events(args.events), bench_dir=args.bench_dir)
    else:
        report = run_smoke_report(
            bench_dir=args.bench_dir,
            scale_name=args.scale,
            dataset=args.dataset,
            scenario=args.scenario,
        )
    print(json.dumps(report, indent=2, sort_keys=True) if args.json else render_report(report))
    return 0 if report["healthy"] else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors (unknown command, bad choice) exit 2
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "run": _command_run,
        "list-models": _command_list_models,
        "datasets": _command_datasets,
        "bench": _command_bench,
        "export-bundle": _command_export_bundle,
        "serve": _command_serve,
        "trace": _command_trace,
        "refresh": _command_refresh,
        "verify": _command_verify,
        "report": _command_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
