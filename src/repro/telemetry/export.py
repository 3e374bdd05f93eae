"""Exporters: Prometheus text, the fleet-wide merge and Chrome trace JSON.

**Prometheus** (format 0.0.4).  :func:`render_prometheus_multi` maps one or
more :class:`~repro.telemetry.metrics.MetricsRegistry` sections, each under
its own label set, onto the families a scraper expects;
:func:`render_prometheus` is its one-section case:

* counters  → ``repro_<name>_total``;
* gauges    → ``repro_<name>``;
* timing histograms → classic ``_bucket`` / ``_sum`` / ``_count`` families over
  fixed latency buckets, plus ``_p50/_p95/_p99`` gauge families (the ring
  buffer knows its exact windowed quantiles, so we expose them directly rather
  than forcing dashboards to interpolate buckets);
* span histograms (``span.<path>``) → one ``repro_span_duration_seconds``
  family labelled ``{path="fit/epoch/batch"}``;
* per-route serving metrics (``serve.route_latency.<route>``,
  ``serve.route_errors.<route>``) → families labelled ``{route="/score"}``.

``_count`` and ``_sum`` are exact (every sample ever recorded); ``_bucket``
counts come from the histogram's retained window, with the ``+Inf`` bucket
pinned to the exact count so the family stays monotone — for runs shorter than
the window capacity (the common case) buckets are exact too.

**Fleet.**  The multi-process serving pool leaves telemetry scattered across
N worker processes plus the parent.  :func:`worker_snapshot` is the picklable
bundle a worker returns over its control pipe (counters, gauges, full
histogram states and the most recent raw span records, plus the span-drop
count); :func:`merge_snapshots` folds many into one aggregate (counters sum,
histogram windows concatenate, maxima take the max); :func:`render_fleet`
emits the aggregate families unlabelled and each process's series again
under a ``worker="N"`` label (``worker="parent"`` for the pool owner).
Gauges are deliberately *not* aggregated: a mean of pool sizes or a sum of
cache byte gauges is rarely the number anyone wants, so gauges appear only
in the per-worker labelled sections.

**Chrome trace.**  :func:`chrome_trace` turns span records of any number of
processes into trace-event JSON (the format Perfetto and
``chrome://tracing`` load), with ``pid``/``tid`` mapping and per-process
metadata rows.

Dependency-free by design, like the registry it reads.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from . import metrics, tracing
from .metrics import MetricsRegistry, TimingHistogram
from .tracing import SPAN_PREFIX

__all__ = [
    "DEFAULT_BUCKETS",
    "ROUTE_LATENCY_PREFIX",
    "ROUTE_ERRORS_PREFIX",
    "render_prometheus",
    "render_prometheus_multi",
    "parse_prometheus",
    "SNAPSHOT_VERSION",
    "worker_snapshot",
    "registry_from_snapshot",
    "merge_snapshots",
    "render_fleet",
    "chrome_trace",
]

#: seconds; chosen to straddle sub-millisecond cache hits through slow fits
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

ROUTE_LATENCY_PREFIX = "serve.route_latency."
ROUTE_ERRORS_PREFIX = "serve.route_errors."

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    """Sanitise a registry name into a legal Prometheus metric name."""
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Float text that round-trips through ``float()`` exactly."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(val)}"' for key, val in labels.items())
    return "{" + inner + "}"


def _histogram_lines(
    family: str,
    histogram: TimingHistogram,
    labels: Dict[str, str],
    lines: List[str],
    typed: set,
) -> None:
    if family not in typed:
        lines.append(f"# TYPE {family} histogram")
        typed.add(family)
    samples = sorted(histogram.samples())
    count, total = histogram.count, histogram.total
    cumulative = 0
    idx = 0
    for bound in DEFAULT_BUCKETS:
        while idx < len(samples) and samples[idx] <= bound:
            idx += 1
        cumulative = idx
        bucket_labels = dict(labels)
        bucket_labels["le"] = _format_value(bound)
        lines.append(f"{family}_bucket{_labels_text(bucket_labels)} {cumulative}")
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(f"{family}_bucket{_labels_text(inf_labels)} {count}")
    lines.append(f"{family}_sum{_labels_text(labels)} {_format_value(total)}")
    lines.append(f"{family}_count{_labels_text(labels)} {count}")


def _quantile_lines(
    family: str,
    histogram: TimingHistogram,
    labels: Dict[str, str],
    lines: List[str],
    typed: set,
) -> None:
    for suffix, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        name = f"{family}_{suffix}_seconds"
        if name not in typed:
            lines.append(f"# TYPE {name} gauge")
            typed.add(name)
        lines.append(f"{name}{_labels_text(labels)} {_format_value(histogram.percentile(q))}")


def _render_registry(
    registry: MetricsRegistry,
    base_labels: Dict[str, str],
    lines: List[str],
    typed: set,
) -> None:
    """Append one registry's families, each series tagged with ``base_labels``."""
    for name, value in registry.counters().items():
        if name.startswith(ROUTE_ERRORS_PREFIX):
            family = "repro_serve_route_errors_total"
            labels = dict(base_labels, route=name[len(ROUTE_ERRORS_PREFIX):])
        else:
            family = _metric_name(name) + "_total"
            labels = dict(base_labels)
        if family not in typed:
            lines.append(f"# TYPE {family} counter")
            typed.add(family)
        lines.append(f"{family}{_labels_text(labels)} {value}")

    for name, value in registry.gauges().items():
        family = _metric_name(name)
        if family not in typed:
            lines.append(f"# TYPE {family} gauge")
            typed.add(family)
        lines.append(f"{family}{_labels_text(dict(base_labels))} {_format_value(value)}")

    for name, histogram in sorted(registry.histograms().items()):
        if name.startswith(SPAN_PREFIX):
            family = "repro_span_duration_seconds"
            labels = dict(base_labels, path=name[len(SPAN_PREFIX):])
        elif name.startswith(ROUTE_LATENCY_PREFIX):
            family = "repro_serve_route_latency_seconds"
            labels = dict(base_labels, route=name[len(ROUTE_LATENCY_PREFIX):])
            _quantile_lines("repro_serve_route_latency", histogram, labels, lines, typed)
        else:
            family = _metric_name(name) + "_seconds"
            labels = dict(base_labels)
        _histogram_lines(family, histogram, labels, lines, typed)


def render_prometheus_multi(
    sections: List[Tuple[MetricsRegistry, Dict[str, str]]],
) -> str:
    """Several registries in one exposition, each under its own label set.

    The ``typed`` set is shared across sections, so a family appearing in
    multiple registries (e.g. the fleet aggregate unlabelled plus per-worker
    ``worker="N"`` series) emits exactly one ``# TYPE`` line — same-name
    families with different label sets are legal exposition and merge into
    one family on the scrape side.
    """
    lines: List[str] = []
    typed: set = set()
    for registry, base_labels in sections:
        _render_registry(registry, dict(base_labels), lines, typed)
    return "\n".join(lines) + "\n"


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """One registry (default: the global one) as exposition text."""
    if registry is None:
        registry = metrics.get_registry()
    return render_prometheus_multi([(registry, {})])


def _unescape_label(value: str) -> str:
    """Invert :func:`_escape_label` with a left-to-right scan.

    Chained ``str.replace`` is wrong here: in ``\\\\n`` the backslash is the
    escaped character and the ``n`` is literal, which only a sequential scan
    gets right.
    """
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse exposition text back into ``{family: {labels-tuple: value}}``.

    A deliberately strict little parser used by the round-trip tests (and any
    in-process consumer): every non-comment line must be
    ``name[{labels}] value``; raises ``ValueError`` otherwise.
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    line_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(-?(?:[0-9.eE+-]+|\+Inf|NaN))$"
    )
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = line_re.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, labels_text, value_text = match.groups()
        labels: List[Tuple[str, str]] = []
        if labels_text:
            consumed = 0
            for lab in label_re.finditer(labels_text):
                labels.append((lab.group(1), _unescape_label(lab.group(2))))
                consumed = lab.end()
            remainder = labels_text[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(f"unparseable labels in line: {raw!r}")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        out.setdefault(name, {})[tuple(labels)] = value
    return out


# --------------------------------------------------------------------- fleet
SNAPSHOT_VERSION = 1


def worker_snapshot(max_spans: int = 5000) -> Dict[str, Any]:
    """This process's telemetry as one picklable dict (pipe/queue safe).

    Span records are capped at the ``max_spans`` most recent; anything the
    cap (or the ring buffer before it) discarded is visible in
    ``span_dropped`` so harvesters can tell "quiet worker" from "saturated
    worker".
    """
    exported = tracing.export_spans(include_dropped=True)
    records = exported["records"]
    dropped = exported["dropped"]
    if len(records) > max_spans:
        dropped += len(records) - max_spans
        records = records[-max_spans:]
    return {
        "version": SNAPSHOT_VERSION,
        "pid": os.getpid(),
        **_registry_state(metrics.get_registry()),
        "spans": records,
        "span_dropped": dropped,
    }


def _registry_state(registry: MetricsRegistry) -> Dict[str, Any]:
    """A registry's counters, gauges and full histogram states as plain data."""
    return {
        "counters": registry.counters(),
        "gauges": registry.gauges(),
        "histograms": {
            name: hist.state() for name, hist in registry.histograms().items()
        },
    }


def registry_from_snapshot(snapshot: Dict[str, Any]) -> MetricsRegistry:
    """A standalone registry holding one snapshot's metrics."""
    registry = MetricsRegistry()
    _fold_snapshot(registry, snapshot)
    return registry


def _fold_snapshot(
    registry: MetricsRegistry, snapshot: Dict[str, Any], gauges: bool = True
) -> None:
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).increment(int(value))
    if gauges:
        for name, value in snapshot.get("gauges", {}).items():
            registry.gauge(name).set(float(value))
    for name, state in snapshot.get("histograms", {}).items():
        registry.histogram(name).merge_state(state)


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """Fold many snapshots into one aggregate registry.

    Counters and histogram count/total sum; histogram maxima take the max and
    sample windows concatenate (capped at window capacity).  Gauges are
    skipped — point-in-time values from different processes don't aggregate
    meaningfully (see module docstring).
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        _fold_snapshot(registry, snapshot, gauges=False)
    return registry


def render_fleet(
    parent_registry: Optional[MetricsRegistry],
    worker_snapshots: Sequence[Dict[str, Any]],
) -> str:
    """One exposition: unlabelled aggregate + per-process labelled series.

    The aggregate section folds the parent registry (when given) together
    with every worker snapshot; the labelled sections carry
    ``worker="parent"`` and ``worker="0..N-1"`` (snapshot order).  Aggregate
    counter totals therefore equal the sum of the labelled series of the same
    family — the invariant the fleet tests pin.
    """
    by_label: Dict[str, Dict[str, Any]] = {}
    if parent_registry is not None:
        by_label["parent"] = _registry_state(parent_registry)
    by_label.update((str(index), snap) for index, snap in enumerate(worker_snapshots))
    sections = [
        (registry_from_snapshot(snap), {"worker": label}) for label, snap in by_label.items()
    ]
    aggregate = merge_snapshots(by_label.values())
    aggregate.counter("fleet.processes").increment(len(by_label))
    aggregate.counter("fleet.span_dropped").increment(
        sum(int(s.get("span_dropped", 0)) for s in worker_snapshots)
        + tracing.dropped_records()
    )
    return render_prometheus_multi([(aggregate, {})] + sections)


def _span_event(record: Dict[str, Any]) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "span_id": record.get("span_id", ""),
        "parent_span_id": record.get("parent_span_id", ""),
        "trace_id": record.get("trace_id", ""),
        "request_id": record.get("request_id", ""),
        "ok": record.get("ok", True),
    }
    if record.get("attrs"):
        args.update(record["attrs"])
    duration_us = max(record.get("duration_s", 0.0) * 1e6, 0.001)
    return {
        "ph": "X",
        "name": record.get("path") or record.get("name", "span"),
        "cat": "span",
        # Complete ("X") events carry their *start*; records hold completion
        # wall-clock, so subtract the duration to place the slice correctly.
        "ts": (record.get("ts", 0.0) - record.get("duration_s", 0.0)) * 1e6,
        "dur": duration_us,
        "pid": record.get("pid", 0),
        "tid": record.get("tid", 0),
        "args": args,
    }


def chrome_trace(
    parent_spans: Sequence[Dict[str, Any]],
    worker_snapshots: Sequence[Dict[str, Any]] = (),
    trace_id: Optional[str] = None,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Chrome trace-event JSON for Perfetto / ``chrome://tracing``.

    Each span record becomes a complete (``ph:"X"``) event on its real
    ``pid``/``tid`` row; metadata events name the parent and worker
    processes.  Optional ``trace_id`` / ``request_id`` filters narrow the
    timeline to one request flow; untraced spans (background refresh, drain
    ticks with no requests) are kept only when no filter is given.
    """
    def keep(record: Dict[str, Any]) -> bool:
        if trace_id is not None and record.get("trace_id", "") != trace_id:
            return False
        if request_id is not None and record.get("request_id", "") != request_id:
            return False
        return True

    events: List[Dict[str, Any]] = []
    parent_pid = os.getpid()
    pid_names: Dict[int, str] = {}
    for record in parent_spans:
        if keep(record):
            events.append(_span_event(record))
            pid_names.setdefault(record.get("pid", parent_pid), f"parent (pid {record.get('pid', parent_pid)})")
    for index, snap in enumerate(worker_snapshots):
        worker_pid = snap.get("pid", 0)
        pid_names.setdefault(worker_pid, f"worker {index} (pid {worker_pid})")
        for record in snap.get("spans", ()):
            if keep(record):
                events.append(_span_event(record))
    events.sort(key=lambda e: e["ts"])
    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        }
        for pid, name in sorted(pid_names.items())
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "metadata": {
            "tool": "repro",
            "span_dropped": int(
                tracing.dropped_records()
                + sum(int(s.get("span_dropped", 0)) for s in worker_snapshots)
            ),
        },
    }
