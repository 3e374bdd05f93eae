"""Structured run events: a dependency-free JSONL event log with run manifests.

The event log is the narrative companion to ``repro.telemetry``'s numbers:
telemetry answers *how long / how many*, the event log answers *what happened
when*.  Each event is one JSON object with a monotonically increasing ``seq``,
a wall-clock ``ts``, the emitting ``run_id`` (when a run is active) and a free
``kind`` plus arbitrary JSON-scalar fields::

    {"seq": 3, "ts": 1754..., "run_id": "run-1f3a...", "kind": "epoch",
     "epoch": 0, "losses": {"prediction": 1.02, ...}}

A *run manifest* (kind ``run_start``) records everything needed to correlate
and reproduce a run: model name, config, seed, dataset shape and the current
``git describe``.  Span paths and counter names from the telemetry registry use
the same vocabulary, so events and metrics join on ``run_id`` + names.

Like the rest of :mod:`repro.telemetry` this module is stdlib-only.  Events
are recorded only at telemetry level ``full`` (``REPRO_TELEMETRY=full``; see
:mod:`repro.telemetry.metrics`) — the default ``on`` level skips them after
one flag check.  Emission never reads any numerical RNG, so an instrumented
run is bitwise-identical to an uninstrumented one.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
import uuid
from collections import deque
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from . import metrics

__all__ = [
    "LOG_PATH_ENV_VAR",
    "EventLog",
    "get_event_log",
    "set_event_log",
    "emit",
    "start_run",
    "end_run",
    "build_run_manifest",
    "git_describe",
    "read_events",
    "reset",
]

LOG_PATH_ENV_VAR = "REPRO_TELEMETRY_LOG"


# --------------------------------------------------------------------- helpers
_git_describe_cache: Optional[str] = None


def git_describe() -> str:
    """Best-effort ``git describe --always --dirty`` of this checkout.

    Cached per process; returns ``"unknown"`` when git or the repository is
    unavailable (e.g. an installed wheel).
    """
    global _git_describe_cache
    if _git_describe_cache is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5,
            )
            _git_describe_cache = out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_describe_cache = "unknown"
    return _git_describe_cache


def _jsonable(value: Any) -> Any:
    """Coerce config objects / numpy scalars into plain JSON values."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and callable(value.item) and getattr(value, "ndim", None) == 0:
        return value.item()  # numpy scalar without importing numpy here
    if hasattr(value, "tolist") and callable(value.tolist):
        return value.tolist()
    return str(value)


class EventLog:
    """Append-only structured event sink: bounded in-memory ring + optional JSONL.

    ``path=None`` keeps events in memory only (the common test configuration);
    with a path every event is additionally appended to the file as one JSON
    line.  File emission is **line-atomic**: the file is opened ``O_APPEND``
    and each event goes out as a single ``os.write`` of one complete line, so
    concurrent writers (threads, or forked/spawned processes that inherited
    the same path) never interleave partial lines.

    ``per_process=True`` additionally suffixes the path with ``.<pid>`` —
    the configuration :func:`get_event_log` uses for ``REPRO_TELEMETRY_LOG``,
    so a worker pool launched at level ``full`` writes N sibling files
    instead of racing one.  :func:`read_events` stitches the siblings back
    together.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        capacity: int = 50_000,
        per_process: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.base_path = Path(path) if path is not None else None
        self.per_process = bool(per_process)
        if self.base_path is not None and self.per_process:
            self.path: Optional[Path] = Path(f"{self.base_path}.{os.getpid()}")
        else:
            self.path = self.base_path
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque()
        self._dropped = 0
        self._seq = 0
        self._run_id: Optional[str] = None
        self._fd: Optional[int] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    # ------------------------------------------------------------------ state
    @property
    def run_id(self) -> Optional[str]:
        return self._run_id

    @property
    def dropped(self) -> int:
        """Events discarded from the memory ring (the file keeps everything)."""
        return self._dropped

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained events in emission order, optionally filtered by kind."""
        with self._lock:
            snapshot = [dict(e) for e in self._events]
        if kind is not None:
            snapshot = [e for e in snapshot if e.get("kind") == kind]
        return snapshot

    # ------------------------------------------------------------------ emission
    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the event dict that was stored."""
        with self._lock:
            self._seq += 1
            event: Dict[str, Any] = {
                "seq": self._seq,
                "ts": time.time(),
                "kind": str(kind),
                "pid": os.getpid(),
            }
            if self._run_id is not None:
                event["run_id"] = self._run_id
            for name, value in fields.items():
                event[name] = _jsonable(value)
            self._dropped += metrics.ring_append(self._events, event, self.capacity)
            if self._fd is not None:
                line = json.dumps(event, sort_keys=True) + "\n"
                os.write(self._fd, line.encode("utf-8"))
        return event

    def start_run(self, manifest: Dict[str, Any]) -> str:
        """Open a run: assign a fresh ``run_id`` and emit the manifest event."""
        run_id = f"run-{uuid.uuid4().hex[:12]}"
        with self._lock:
            self._run_id = run_id
        self.emit("run_start", manifest=manifest)
        return run_id

    def end_run(self, **fields: Any) -> None:
        """Emit the closing event of the active run and clear the run id."""
        if self._run_id is None:
            return
        self.emit("run_end", **fields)
        with self._lock:
            self._run_id = None

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


# ----------------------------------------------------------------- global sink
_default_log: Optional[EventLog] = None
_default_lock = threading.Lock()


def get_event_log() -> EventLog:
    """The process-wide event log (created lazily; honours ``REPRO_TELEMETRY_LOG``).

    The env-configured path is opened ``per_process``: pool workers inherit
    ``REPRO_TELEMETRY_LOG`` from the parent, and without the ``.<pid>`` suffix N
    processes would append to one file and interleave lines.  Logs created
    explicitly via :class:`EventLog` keep their exact
    path (single-process callers expect the file where they asked for it).
    """
    global _default_log
    with _default_lock:
        if _default_log is None:
            path = os.environ.get(LOG_PATH_ENV_VAR) or None
            _default_log = EventLog(path=path, per_process=path is not None)
        return _default_log


def set_event_log(log: Optional[EventLog]) -> None:
    """Replace the process-wide event log (``None`` → recreate lazily)."""
    global _default_log
    with _default_lock:
        if _default_log is not None and _default_log is not log:
            _default_log.close()
        _default_log = log


def reset() -> None:
    """Drop the global event log (tests); a fresh one is created on next use."""
    set_event_log(None)


# --------------------------------------------------------------- cheap helpers
def emit(kind: str, **fields: Any) -> None:
    """Record an event on the global log — one flag check below level ``full``."""
    if metrics.is_full():
        get_event_log().emit(kind, **fields)


def start_run(manifest: Dict[str, Any]) -> Optional[str]:
    """Open a run on the global log at level ``full``."""
    if not metrics.is_full():
        return None
    return get_event_log().start_run(manifest)


def end_run(**fields: Any) -> None:
    if metrics.is_full():
        get_event_log().end_run(**fields)


def build_run_manifest(
    model_name: str,
    config: Any = None,
    train_config: Any = None,
    seed: Optional[int] = None,
    dataset_shape: Optional[Dict[str, Any]] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble the reproducibility manifest emitted as the ``run_start`` event."""
    manifest: Dict[str, Any] = {
        "model": str(model_name),
        "git": git_describe(),
        "pid": os.getpid(),
    }
    if config is not None:
        manifest["config"] = _jsonable(config)
    if train_config is not None:
        manifest["train_config"] = _jsonable(train_config)
    if seed is not None:
        manifest["seed"] = int(seed)
    if dataset_shape is not None:
        manifest["dataset"] = _jsonable(dataset_shape)
    for key, value in extra.items():
        manifest[key] = _jsonable(value)
    return manifest


def _read_one_file(path: Path) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


def read_events(path: os.PathLike, stitch: bool = True) -> List[Dict[str, Any]]:
    """Parse a JSONL event file back into event dicts (skips corrupt lines).

    With ``stitch`` (the default) per-process sibling files — ``<path>.<pid>``
    as written by a multi-process run — are folded in and the combined stream
    is ordered by wall-clock ``ts`` (then per-file ``seq``), so a report over
    a pool run sees one coherent timeline.  Pass ``stitch=False`` to read
    exactly one file.
    """
    base = Path(path)
    files: List[Path] = []
    if base.exists():
        files.append(base)
    if stitch:
        siblings = sorted(
            sibling
            for sibling in base.parent.glob(base.name + ".*")
            if sibling.suffix[1:].isdigit()
        )
        files.extend(siblings)
    if not files:
        # Preserve the single-file contract: a missing path raises.
        raise FileNotFoundError(str(base))
    if len(files) == 1:
        return _read_one_file(files[0])
    merged: List[Dict[str, Any]] = []
    for file in files:
        merged.extend(_read_one_file(file))
    merged.sort(key=lambda e: (e.get("ts", 0.0), e.get("seq", 0)))
    return merged
