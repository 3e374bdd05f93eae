"""Nestable wall-clock spans: a context manager / decorator plus a flat export.

A span measures one region of code.  Spans nest on a per-thread stack, and a
completed span is recorded under its *path* — stack names joined with ``/`` —
so the hierarchy survives flattening::

    with span("fit"):
        with span("epoch"):
            with span("batch"):
                ...

records ``fit``, ``fit/epoch`` and ``fit/epoch/batch``.  Per-path duration
distributions live in the global metrics registry (prefix ``span.``), giving
every path a p50/p95/max for free; the most recent raw records are kept in a
bounded ring for export and debugging.

Every record additionally carries *trace context*: a process-unique
``span_id``, the ``parent_span_id`` of the enclosing span (or of the remote
parent that minted the active trace), the ``trace_id``/``request_id`` of the
active distributed trace (if any), plus ``pid``/``tid`` and the wall-clock
completion ``ts`` — enough to stitch records from N processes into one timeline
(see :mod:`repro.telemetry.export`).  A trace is the plain wire triple
``(trace_id, parent_span_id, request_id)``: it pickles cheaply into queue and
pipe envelopes and needs no class on the receiving side.  The ambient trace
lives in a :class:`contextvars.ContextVar` so it propagates naturally within
a thread and can be re-activated explicitly after a queue or pipe hop:

* :class:`trace_scope` activates a triple (or ``None``) for a block — at HTTP
  ingress with ``(new_trace_id(), "", request_id)``;
* :func:`activate_trace` / :func:`deactivate_trace` are the token-based
  primitives for hops whose scope spans a ``try``/``finally``;
* :func:`current_trace` returns the active triple with ``parent_span_id``
  replaced by the innermost *live* span of this thread — the value a child
  hop should carry so its spans parent correctly.

Id generation never touches any numerical RNG (a few bytes of
``os.urandom`` at import plus a per-process counter), keeping instrumented
runs bitwise-identical to uninstrumented ones.

Spans are exception-safe — the stack is popped and the duration recorded even
when the body raises (the record is flagged ``ok=False``) — and they respect
the global ``REPRO_TELEMETRY`` switch: disabled spans skip all bookkeeping.
Once the record ring holds :data:`MAX_RECORDS`, each new record evicts the
oldest; evictions are counted in :func:`dropped_records` *and* in the
``span.dropped`` registry counter, so trace truncation is visible in every
metrics surface.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from . import metrics

__all__ = [
    "span",
    "current_path",
    "current_span_id",
    "current_trace",
    "activate_trace",
    "deactivate_trace",
    "trace_scope",
    "new_span_id",
    "new_trace_id",
    "export_spans",
    "dropped_records",
    "span_summaries",
    "reset_spans",
    "SPAN_PREFIX",
    "DROPPED_COUNTER",
    "MAX_RECORDS",
]

#: registry histogram prefix for span paths
SPAN_PREFIX = "span."

#: registry counter bumped for every raw record evicted past MAX_RECORDS
DROPPED_COUNTER = "span.dropped"

#: cap on retained raw records; aggregates in the registry are unaffected
MAX_RECORDS = 20_000

_local = threading.local()
_records_lock = threading.Lock()
#: raw records as tuples (half the memory of dicts); :func:`export_spans`
#: builds the exported dicts from them
_records: Deque[Tuple[Any, ...]] = deque()
_dropped = 0

#: the active distributed trace as a wire triple
#: ``(trace_id, parent_span_id, request_id)`` — ``None`` outside any trace
_trace_var: "contextvars.ContextVar[Optional[Tuple[str, str, str]]]" = (
    contextvars.ContextVar("repro_trace", default=None)
)

#: per-process id material: a random prefix (urandom, *not* any model RNG)
#: plus a monotone counter; ``spawn`` workers re-import and get fresh bytes
_ID_PREFIX = os.urandom(4).hex()
_id_counter = itertools.count(1)

#: one wall-clock read at import maps the perf_counter timeline onto epoch
#: time, so span records share a consistent clock without a syscall per span;
#: ``spawn`` workers re-import and calibrate their own offset
_EPOCH_OFFSET = time.time() - time.perf_counter()
_PID = os.getpid()


def new_span_id() -> str:
    """A process-unique 16-hex-char span id (no numerical RNG involved)."""
    return f"{_ID_PREFIX}{next(_id_counter):08x}"


def new_trace_id() -> str:
    """A fresh 24-hex-char trace id, unique across processes.

    Same scheme as span ids (import-time urandom prefix + counter): no
    syscall on the per-request mint path, and uniqueness across processes
    rides on the per-process prefix exactly as span ids already do.
    """
    return f"{_ID_PREFIX}{next(_id_counter):016x}"


def _stack() -> List[Tuple[str, str]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_path() -> str:
    """The active span path for this thread ('' outside any span)."""
    return "/".join(name for name, _ in _stack())


def current_span_id() -> str:
    """The innermost live span id of this thread ('' outside any span)."""
    stack = _stack()
    return stack[-1][1] if stack else ""


def activate_trace(wire: Optional[Tuple[str, str, str]]) -> "contextvars.Token":
    """Install a wire triple ``(trace_id, parent_span_id, request_id)``.

    Returns the token to hand back to :func:`deactivate_trace`.  Passing
    ``None`` explicitly deactivates tracing for the scope (useful around
    work that must not inherit a request's trace).
    """
    return _trace_var.set(wire)


def deactivate_trace(token: "contextvars.Token") -> None:
    """Restore the trace context captured by :func:`activate_trace`."""
    _trace_var.reset(token)


class trace_scope:
    """Activate the wire triple ``wire`` for the block; spans inside inherit it.

    ``None`` deactivates any inherited trace for the block, so work inside it
    is not attributed to the enclosing request.  A slotted class rather than
    ``@contextmanager``: this sits
    on the per-request ingress path, where the generator protocol's extra
    frames are measurable against the tracing-overhead budget.
    """

    __slots__ = ("_wire", "_token")

    def __init__(self, wire: Optional[Tuple[str, str, str]]) -> None:
        self._wire = wire
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[Tuple[str, str, str]]:
        self._token = _trace_var.set(self._wire)
        return self._wire

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        _trace_var.reset(self._token)
        return False


def current_trace() -> Optional[Tuple[str, str, str]]:
    """The wire triple a child hop should carry, or ``None`` outside a trace.

    The ``parent_span_id`` slot is the innermost live span of *this* thread
    when one is open — so a queue submit or pipe send captures the span that
    actually caused it — and the remote parent's span otherwise.
    """
    wire = _trace_var.get()
    if wire is None:
        return None
    stack = _stack()
    if stack:
        return (wire[0], stack[-1][1], wire[2])
    return wire


class span:
    """Context manager *and* decorator measuring one named region.

    As a decorator it opens a fresh span per call, so a decorated function is
    safely re-entrant and records under whatever path is active at call time.
    ``attrs`` (a shallow-copied dict) rides on the exported record —
    :meth:`annotate` adds to it mid-span (e.g. ids only known after entry).
    """

    __slots__ = ("name", "_active", "_path", "_start", "_span_id",
                 "_parent_id", "_trace", "_attrs")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        if "/" in name:
            raise ValueError("span names must not contain '/' (reserved for paths)")
        self.name = name
        self._active = False
        self._path = ""
        self._start = 0.0
        self._span_id = ""
        self._parent_id = ""
        self._trace: Optional[Tuple[str, str, str]] = None
        self._attrs = dict(attrs) if attrs else None

    def annotate(self, **attrs: Any) -> "span":
        """Attach extra fields to this span's exported record (active spans only)."""
        if self._active:
            if self._attrs is None:
                self._attrs = {}
            self._attrs.update(attrs)
        return self

    def __enter__(self) -> "span":
        if not metrics.is_enabled():
            self._active = False
            return self
        stack = _stack()
        trace = _trace_var.get()
        if stack:
            self._parent_id = stack[-1][1]
        elif trace is not None:
            self._parent_id = trace[1]
        else:
            self._parent_id = ""
        self._trace = trace
        self._span_id = new_span_id()
        stack.append((self.name, self._span_id))
        self._path = "/".join(name for name, _ in stack)
        self._active = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if not self._active:
            return False
        end = time.perf_counter()
        duration = end - self._start
        self._active = False
        stack = _stack()
        # Pop our own frame even if an inner span leaked (defensive).
        while stack and stack[-1][0] != self.name:
            stack.pop()
        if stack:
            stack.pop()
        metrics.get_registry().histogram(SPAN_PREFIX + self._path).record(duration)
        trace = self._trace
        record = (
            self.name,
            self._path,
            duration,
            exc_type is None,
            # Completion wall-clock: the Chrome exporter subtracts duration to
            # place the slice, so ts and duration must share one timeline.
            _EPOCH_OFFSET + end,
            threading.get_ident(),
            self._span_id,
            self._parent_id,
            trace[0] if trace is not None else "",
            trace[2] if trace is not None else "",
            self._attrs,
        )
        global _dropped
        with _records_lock:
            evicted = metrics.ring_append(_records, record, MAX_RECORDS)
            _dropped += evicted
        if evicted:
            # Outside the records lock (the counter has its own).  Eviction
            # must be *visible*, not a silent truncation of the trace.
            metrics.get_registry().counter(DROPPED_COUNTER).increment(evicted)
        return False

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with span(self.name):
                return fn(*args, **kwargs)

        return wrapped


def export_spans(include_dropped: bool = False):
    """Flat copy of the retained raw span records, in completion order.

    With ``include_dropped`` the return value is instead a dict
    ``{"records": [...], "dropped": n}`` so consumers see how many older
    records were evicted past :data:`MAX_RECORDS` alongside what survived.
    """
    with _records_lock:
        raw, dropped = list(_records), _dropped
    records = [_record_dict(record) for record in raw]
    if include_dropped:
        return {"records": records, "dropped": dropped}
    return records


def _record_dict(record: Tuple[Any, ...]) -> Dict[str, Any]:
    name, path, duration, ok, ts, tid, span_id, parent_id, trace_id, request_id, attrs = record
    out = {
        "name": name,
        "path": path,
        "depth": path.count("/"),
        "duration_s": duration,
        "ok": ok,
        "ts": ts,
        "pid": _PID,
        "tid": tid,
        "span_id": span_id,
        "parent_span_id": parent_id,
        "trace_id": trace_id,
        "request_id": request_id,
    }
    if attrs:
        out["attrs"] = attrs
    return out


def dropped_records() -> int:
    """How many raw records were evicted past MAX_RECORDS (aggregates kept)."""
    with _records_lock:
        return _dropped


def span_summaries(include_dropped: bool = False) -> Dict[str, Dict[str, float]]:
    """Per-path duration summaries (count/total/p50/p95/max), path-keyed.

    With ``include_dropped`` the mapping gains a synthetic ``"(dropped)"``
    entry carrying the saturation count, so consumers of the summary view see
    ring-buffer truncation without a second call.
    """
    timings = metrics.get_registry().timings()
    out = {
        name[len(SPAN_PREFIX):]: summary
        for name, summary in timings.items()
        if name.startswith(SPAN_PREFIX)
    }
    if include_dropped:
        out["(dropped)"] = {"count": float(dropped_records())}
    return out


def reset_spans() -> None:
    """Drop raw records and this thread's stack (registry reset is separate)."""
    global _dropped
    with _records_lock:
        _records.clear()
        _dropped = 0
    _local.stack = []
