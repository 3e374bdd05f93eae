"""Dependency-free telemetry: the one observability plane.

One switch, ``REPRO_TELEMETRY``, with three levels (read once at import;
:func:`set_level` / :func:`at_level` override it per process):

======== ================================================================
``off``  ``0``/``off``/``false``/``no``/``disabled``: nothing is recorded
``on``   the default (unset or any other value): counters, gauges,
         histograms, spans and traces
``full`` ``on`` plus the JSONL event log and the training-health monitors
======== ================================================================

The pieces:

* :mod:`~repro.telemetry.metrics` — the switch, plus thread-safe counters,
  gauges and ring-buffer timing histograms behind a global registry;
* :mod:`~repro.telemetry.tracing` — ``span(name)`` context manager /
  decorator producing nestable wall-clock spans with a flat export, and the
  distributed-trace wire triple that follows a request across processes;
* :mod:`~repro.telemetry.events` — the JSONL :class:`EventLog` with per-run
  manifests (level ``full``; file path from ``REPRO_TELEMETRY_LOG``);
* :mod:`~repro.telemetry.export` — Prometheus exposition, the fleet-wide
  merge of per-worker snapshots and Chrome trace JSON;
* :mod:`~repro.telemetry.profiler` — :class:`AutogradProfiler`, which meters
  every autograd primitive (counts, forward/backward time, allocation);
* :mod:`~repro.telemetry.report` — JSON snapshots (the span/op section of
  ``BENCH_training.json``), a human-readable table and the ``repro report``
  health report.

The training-health monitors read numpy arrays and the autograd engine, so
they live in :mod:`repro.train.monitors`; this package imports only the
standard library.

Instrumentation must never change numerics: spans, counters and events read
the clock, never the RNG, and the determinism suite verifies predictions are
bit-identical at every level.
"""

from . import events, export, metrics, profiler, report, tracing
from .metrics import (
    ENV_VAR,
    FULL,
    OFF,
    ON,
    Counter,
    Gauge,
    MetricsRegistry,
    TimingHistogram,
    at_level,
    disabled,
    enabled,
    get_registry,
    increment,
    is_enabled,
    is_full,
    level,
    record_timing,
    reset,
    set_gauge,
    set_level,
)
from .profiler import AutogradProfiler, active_profiler
from .report import render, snapshot, write_snapshot
from .tracing import (
    activate_trace,
    current_path,
    current_trace,
    deactivate_trace,
    dropped_records,
    export_spans,
    new_trace_id,
    reset_spans,
    span,
    span_summaries,
    trace_scope,
)

__all__ = [
    "ENV_VAR",
    "OFF",
    "ON",
    "FULL",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "TimingHistogram",
    "AutogradProfiler",
    "active_profiler",
    "span",
    "current_path",
    "current_trace",
    "activate_trace",
    "deactivate_trace",
    "new_trace_id",
    "trace_scope",
    "export_spans",
    "dropped_records",
    "span_summaries",
    "reset_spans",
    "get_registry",
    "reset",
    "level",
    "set_level",
    "at_level",
    "is_enabled",
    "is_full",
    "enabled",
    "disabled",
    "increment",
    "set_gauge",
    "record_timing",
    "snapshot",
    "write_snapshot",
    "render",
    "events",
    "export",
    "metrics",
    "tracing",
    "profiler",
    "report",
]
