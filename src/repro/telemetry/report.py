"""Reports: telemetry snapshots and the ``repro report`` health report.

**Snapshots.**  The snapshot schema (``schema_version`` 1) is the contract
future perf PRs regress against — ``BENCH_training.json`` carries one under
``results.snapshot``::

    {
      "schema_version": 1,
      "meta":     {"enabled": bool, "note": str, ...},
      "counters": {name: int},
      "gauges":   {name: float},
      "spans":    {path: {count, total_s, mean_s, p50_s, p95_s, max_s}},
      "timings":  {name: {...same summary...}},   # non-span histograms
      "ops":      {op: {count, forward_s, backward_count, backward_s,
                        alloc_bytes}},             # when a profiler was active
    }

Span keys are ``/``-joined paths (``fit/epoch/batch``), so the nesting tree is
recoverable from the flat mapping.  Everything is plain JSON scalars; the file
round-trips through ``json.loads`` unchanged.  :func:`render` prints one as a
fixed-width table.

**Health report** (``REPORT_SCHEMA_VERSION`` 1).  :func:`build_report`
stitches four sources into one terminal/Markdown document (or ``--json`` for
CI):

1. the structured event log — run manifests, per-epoch losses, monitor
   readings, health errors;
2. a telemetry snapshot — span totals and the serving latency histograms;
3. the fitted model's :class:`~repro.train.history.TrainHistory` (recovered
   from the ``fit_end`` event);
4. the committed ``BENCH_*.json`` envelopes of ``repro bench`` — every
   committed metric that the fresh run also observed (same name) is reported
   with its delta.

:func:`run_smoke_report` performs a real seeded smoke fit at level ``full``
plus a short serving exercise, then reports on it — the one-command health
check ``python -m repro.cli report`` runs.  It imports the model stack at
call time, so this module stays stdlib-only.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import events as events_mod
from . import metrics, profiler, tracing
from .export import ROUTE_LATENCY_PREFIX

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_SCHEMA_VERSION",
    "snapshot",
    "write_snapshot",
    "render",
    "build_report",
    "run_smoke_report",
    "render_report",
]

SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1


def snapshot(note: str = "", extra_meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Collect the registry, span aggregates and any active profiler's stats."""
    registry = metrics.get_registry()
    timings = registry.timings()
    spans = {
        name[len(tracing.SPAN_PREFIX):]: summary
        for name, summary in timings.items()
        if name.startswith(tracing.SPAN_PREFIX)
    }
    plain_timings = {
        name: summary for name, summary in timings.items()
        if not name.startswith(tracing.SPAN_PREFIX)
    }
    meta: Dict[str, Any] = {
        "enabled": metrics.is_enabled(),
        "note": note,
        "span_dropped": tracing.dropped_records(),
    }
    if extra_meta:
        meta.update(extra_meta)
    active = profiler.active_profiler()
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "counters": registry.counters(),
        "gauges": registry.gauges(),
        "spans": spans,
        "timings": plain_timings,
        "ops": active.snapshot() if active is not None else {},
    }


def write_snapshot(path: str, note: str = "", extra_meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Dump a snapshot to ``path`` as indented JSON; returns the snapshot."""
    snap = snapshot(note=note, extra_meta=extra_meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snap, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snap


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}µs"


def render(snap: Dict[str, Any]) -> str:
    """A fixed-width table of a snapshot, for terminals and logs."""
    lines = [f"telemetry snapshot (schema v{snap['schema_version']})"]
    if snap["meta"].get("note"):
        lines.append(f"  note: {snap['meta']['note']}")

    if snap["spans"]:
        lines.append("")
        lines.append(f"  {'span path':<44} {'count':>7} {'total':>10} {'p50':>10} {'p95':>10} {'max':>10}")
        for path, s in sorted(snap["spans"].items()):
            lines.append(
                f"  {path:<44} {s['count']:>7} {_format_seconds(s['total_s']):>10}"
                f" {_format_seconds(s['p50_s']):>10} {_format_seconds(s['p95_s']):>10}"
                f" {_format_seconds(s['max_s']):>10}"
            )

    if snap["ops"]:
        lines.append("")
        lines.append(f"  {'autograd op':<16} {'count':>9} {'forward':>10} {'backward':>10} {'alloc':>12}")
        for name, s in snap["ops"].items():
            alloc_mb = s["alloc_bytes"] / (1024.0 * 1024.0)
            lines.append(
                f"  {name:<16} {s['count']:>9} {_format_seconds(s['forward_s']):>10}"
                f" {_format_seconds(s['backward_s']):>10} {alloc_mb:>10.2f}MB"
            )

    if snap["counters"]:
        lines.append("")
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"  {name:<44} {value:>10}")

    if snap["gauges"]:
        lines.append("")
        for name, value in sorted(snap["gauges"].items()):
            lines.append(f"  {name:<44} {value:>14.4f}")
    return "\n".join(lines)


# ------------------------------------------------------------------ assembling
def _latest_monitor_readings(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    readings: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("kind") == "monitor" and "monitor" in event:
            readings[event["monitor"]] = dict(event.get("values", {}))
    return readings


def _serving_latency(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """p50/p95/p99-style summaries for every serving span/route histogram."""
    out: Dict[str, Dict[str, float]] = {}
    for path, summary in snapshot.get("spans", {}).items():
        leaf = path.rsplit("/", 1)[-1]
        if leaf.startswith("serve."):
            out[leaf] = dict(summary)
    for name, summary in snapshot.get("timings", {}).items():
        if name.startswith(ROUTE_LATENCY_PREFIX):
            out[f"route {name[len(ROUTE_LATENCY_PREFIX):]}"] = dict(summary)
    return out


def _bench_deltas(bench_dir: Path, observed: Dict[str, Any]) -> Dict[str, Any]:
    """Each committed envelope's ``metrics``, diffed against same-named observations."""
    out: Dict[str, Any] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            envelope = json.loads(path.read_text())
            committed = dict(envelope["metrics"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out[path.name] = {"present": False, "error": str(exc)}
            continue
        deltas: Dict[str, Dict[str, Any]] = {}
        for name, value in committed.items():
            fresh = observed.get(name)
            if fresh is None or isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            deltas[name] = {
                "committed": value,
                "observed": fresh,
                "equal": bool(fresh == value),
                "delta_pct": 100.0 * (fresh - value) / value if value else None,
            }
        out[path.name] = {
            "present": True,
            "suite": envelope.get("suite"),
            "preset": envelope.get("preset"),
            "ok": envelope.get("ok"),
            "metrics": committed,
            "deltas": deltas,
        }
    return out


def build_report(
    events: List[Dict[str, Any]],
    snapshot: Optional[Dict[str, Any]] = None,
    bench_dir: os.PathLike = ".",
    observed: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the unified health report from pre-collected sources.

    ``observed`` carries fresh measurements (batches_per_sec, rmse,
    score_p50_s …) used for the baseline deltas; pass what you have.
    """
    snapshot = snapshot or {"spans": {}, "timings": {}, "counters": {}, "gauges": {}}
    observed = dict(observed or {})

    manifests = [e.get("manifest", {}) | {"run_id": e.get("run_id")} for e in events if e.get("kind") == "run_start"]
    fit_ends = [e for e in events if e.get("kind") == "fit_end"]
    health_errors = [e for e in events if e.get("kind") == "health_error"]
    epochs = [e for e in events if e.get("kind") == "epoch"]

    history: Dict[str, List[float]] = fit_ends[-1].get("history", {}) if fit_ends else {}
    monitors = _latest_monitor_readings(events)
    serving = _serving_latency(snapshot)
    if not observed.get("batches_per_sec"):
        for path, summary in snapshot.get("spans", {}).items():
            if path.endswith("fit/epoch/batch") and summary.get("total_s"):
                observed["batches_per_sec"] = summary["count"] / summary["total_s"]
                break
    if not observed.get("score_p50_s") and "serve.score" in serving:
        observed["score_p50_s"] = serving["serve.score"].get("p50_s")

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "runs": manifests,
        "events": {
            "total": len(events),
            "epochs": len(epochs),
            "monitor_observations": sum(1 for e in events if e.get("kind") == "monitor"),
            "health_errors": [
                {k: e.get(k) for k in ("monitor", "tensor", "epoch", "step", "error")}
                for e in health_errors
            ],
        },
        "history": history,
        "monitors": monitors,
        "serving": serving,
        "telemetry": {
            "counters": snapshot.get("counters", {}),
            "gauges": {
                name: value
                for name, value in snapshot.get("gauges", {}).items()
                if name.startswith("obs.") or name.startswith("serve.")
            },
        },
        "bench": _bench_deltas(Path(bench_dir), observed),
        "observed": observed,
        "healthy": not health_errors,
    }


# ------------------------------------------------------------------- smoke run
def run_smoke_report(
    bench_dir: os.PathLike = ".",
    scale_name: str = "smoke",
    dataset: str = "ML-100K",
    scenario: str = "item_cold",
    pairs: int = 200,
    events_path: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Fit a seeded smoke model with all monitors on, exercise serving, report.

    The entire run happens at telemetry level ``full`` with a private event
    log, restoring the previous level and log afterwards.
    """
    import numpy as np

    # Imported here: repro.telemetry stays stdlib-only at import time.
    from ..bench import smoke_bundle, smoke_fit
    from ..experiments.configs import get_scale
    from ..serving import InferenceEngine, load_bundle

    previous_log = events_mod._default_log
    log = events_mod.EventLog(path=events_path)
    events_mod.set_event_log(log)
    metrics.reset()
    tracing.reset_spans()
    try:
        with metrics.at_level(metrics.FULL):
            fit = smoke_fit(scale_name, dataset, scenario)
            with smoke_bundle(fit) as bundle_dir:
                engine = InferenceEngine(load_bundle(bundle_dir))
                rng = np.random.default_rng(get_scale(scale_name).seed)
                users = rng.integers(0, engine.num_users, size=pairs)
                items = rng.integers(0, engine.num_items, size=pairs)
                with tracing.span("serve.request"):
                    engine.score(users, items)
                with tracing.span("serve.request"):
                    engine.score(users, items)  # cached second pass
            snap = snapshot(note="repro report")
    finally:
        events_mod.set_event_log(previous_log)

    observed = {
        "rmse": fit.result.rmse,
        "mae": fit.result.mae,
        "epochs_trained": fit.history.num_epochs,
        "score_pairs": int(pairs),
    }
    return build_report(log.events(), snapshot=snap, bench_dir=bench_dir, observed=observed)


# ------------------------------------------------------------------- rendering
def render_report(report: Dict[str, Any]) -> str:
    """Markdown-flavoured text rendering (terminals read it fine too)."""
    lines: List[str] = ["# repro health report", ""]
    status = "HEALTHY" if report.get("healthy") else "UNHEALTHY"
    lines.append(f"**Status: {status}**  (events: {report['events']['total']}, "
                 f"monitor observations: {report['events']['monitor_observations']})")

    for manifest in report.get("runs", []):
        lines.append("")
        lines.append("## Run manifest")
        for key in ("run_id", "model", "seed", "git"):
            if manifest.get(key) is not None:
                lines.append(f"- {key}: `{manifest[key]}`")
        dataset = manifest.get("dataset") or {}
        if dataset:
            lines.append(
                f"- dataset: {dataset.get('name')} ({dataset.get('scenario')}) — "
                f"{dataset.get('num_users')} users × {dataset.get('num_items')} items, "
                f"{dataset.get('train_interactions')} train interactions"
            )
        if manifest.get("monitors"):
            lines.append(f"- monitors: {', '.join(manifest['monitors'])} "
                         f"(every {manifest.get('every_n_steps')} steps)")

    for error in report["events"]["health_errors"]:
        lines.append("")
        lines.append(f"⚠ **health error** [{error.get('monitor')}] {error.get('error')}")

    history = report.get("history", {})
    if history:
        lines.append("")
        lines.append("## Training")
        for name, curve in sorted(history.items()):
            if curve:
                lines.append(f"- {name}: {curve[0]:.4f} → {curve[-1]:.4f} over {len(curve)} epochs")
        if report["observed"].get("rmse") is not None:
            lines.append(f"- eval: rmse {report['observed']['rmse']:.4f}"
                         + (f", mae {report['observed']['mae']:.4f}" if report["observed"].get("mae") is not None else ""))

    monitors = report.get("monitors", {})
    if monitors:
        lines.append("")
        lines.append("## Monitors (latest readings)")
        for name, values in sorted(monitors.items()):
            lines.append(f"- **{name}**")
            for key, value in sorted(values.items()):
                lines.append(f"  - {key}: {value:.6g}")

    serving = report.get("serving", {})
    if serving:
        lines.append("")
        lines.append("## Serving latency")
        for name, summary in sorted(serving.items()):
            lines.append(
                f"- {name}: count {int(summary.get('count', 0))}, "
                f"p50 {_format_seconds(summary.get('p50_s', 0.0))}, "
                f"p95 {_format_seconds(summary.get('p95_s', 0.0))}, "
                f"max {_format_seconds(summary.get('max_s', 0.0))}"
            )

    lines.append("")
    lines.append("## Baseline deltas")
    bench = report.get("bench", {})
    if not bench:
        lines.append("- no committed BENCH_*.json envelopes found")
    for filename, entry in sorted(bench.items()):
        if not entry.get("present"):
            lines.append(f"- {filename}: unreadable ({entry.get('error')})")
            continue
        lines.append(
            f"- {filename} ({entry['suite']}, {entry['preset']}, "
            f"{'ok' if entry.get('ok') else 'NOT OK'}): {len(entry['metrics'])} metrics"
        )
        for name, delta in sorted(entry["deltas"].items()):
            change = "equal" if delta["equal"] else (
                "n/a" if delta["delta_pct"] is None else f"{delta['delta_pct']:+.1f}%"
            )
            lines.append(
                f"  - {name}: observed {delta['observed']:.6g} vs committed "
                f"{delta['committed']:.6g} ({change})"
            )
    return "\n".join(lines) + "\n"
