"""Timing proxies around public objects: the pool the traced server hands to
``make_server`` and the oracle engine's model.

Each proxy forwards every attribute to the wrapped object and records the
wall-clock duration of a few public calls in memory (``samples``); nothing
is written until the benchmark asks for it at the end of the run.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.telemetry import tracing


class _Timed:
    #: public methods whose calls are timed
    TIMED: Tuple[str, ...] = ()

    def __init__(self, target: Any) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "samples", defaultdict(list))
        object.__setattr__(self, "_lock", threading.Lock())

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if name not in self.TIMED:
            return value

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return value(*args, **kwargs)
            finally:
                self._record(name, time.perf_counter() - started, args)

        return timed

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    def _record(self, name: str, seconds: float, args: Tuple[Any, ...]) -> None:
        with self._lock:
            self.samples[name].append(seconds)


class TimedPool(_Timed):
    """Around the :class:`WorkerPool` given to ``make_server``.  Each sample
    carries the HTTP request id, so the client's round trip can be matched
    to the backend call it contains."""

    TIMED = ("score", "top_n", "add_user", "add_item")

    def _record(self, name: str, seconds: float, args: Tuple[Any, ...]) -> None:
        wire = tracing.current_trace()
        with self._lock:
            self.samples[name].append((wire[2] if wire else "", seconds))


class TimedModel(_Timed):
    """Around the oracle engine's ``model``, so its replays of the workload's
    requests time the public model calls; ``pairwise_scores`` also records
    rows."""

    TIMED = ("pairwise_scores", "generate_cold_preference", "raw_node_embeddings",
             "refine_node_embeddings")

    def _record(self, name: str, seconds: float, args: Tuple[Any, ...]) -> None:
        with self._lock:
            self.samples[name].append(seconds)
            if name == "pairwise_scores":
                self.samples["head_rows"].append(float(len(args[0])))


def snapshot(proxy: _Timed) -> Dict[str, List[Any]]:
    with proxy._lock:
        return {name: list(values) for name, values in proxy.samples.items()}
