"""Thread-safe counters, gauges and timing histograms behind a global registry.

This module is deliberately dependency-free (stdlib only): telemetry must be
importable everywhere — including the autograd layer — without creating import
cycles or pulling numerical dependencies into the observability path.

The whole package sits behind one switch with three levels, read from the
``REPRO_TELEMETRY`` environment variable once at import:

* ``off`` — ``0``/``off``/``false``/``no``/``disabled``: nothing is recorded;
* ``on`` — the default (unset, ``1``, ``on`` or any other value): counters,
  gauges, histograms and spans;
* ``full`` — ``on`` plus the JSONL event log and the training-health monitors.

:func:`set_level` changes the level for the current process (``None``
re-reads the environment); :func:`at_level`, :func:`enabled` and
:func:`disabled` are scoped overrides that restore the previous level.

When off, every recording helper returns after a single flag check, so the
instrumentation scattered through the hot paths costs near nothing.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from typing import Any, ContextManager, Deque, Dict, Iterator, List, Optional

__all__ = [
    "ENV_VAR",
    "OFF",
    "ON",
    "FULL",
    "Counter",
    "Gauge",
    "TimingHistogram",
    "MetricsRegistry",
    "get_registry",
    "reset",
    "parse_level",
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
    "quantile",
    "ring_append",
]

ENV_VAR = "REPRO_TELEMETRY"

OFF, ON, FULL = "off", "on", "full"
_LEVELS = (OFF, ON, FULL)

_FALSY = frozenset({"0", "off", "false", "no", "disabled"})


def parse_level(value: Optional[str]) -> str:
    """The level a ``REPRO_TELEMETRY`` value selects (``None`` means unset)."""
    text = (value or "").strip().lower()
    if text in _FALSY:
        return OFF
    return FULL if text == FULL else ON


_level = parse_level(os.environ.get(ENV_VAR))


def level() -> str:
    """The current level: ``"off"``, ``"on"`` or ``"full"``."""
    return _level


def set_level(value: Optional[str]) -> None:
    """Set the level for this process; ``None`` re-reads ``REPRO_TELEMETRY``."""
    global _level
    if value is None:
        value = parse_level(os.environ.get(ENV_VAR))
    elif value not in _LEVELS:
        raise ValueError(f"telemetry level must be one of {_LEVELS}, got {value!r}")
    _level = value


@contextmanager
def at_level(value: str) -> Iterator[None]:
    """Run the block at ``value``, then restore the previous level."""
    previous = _level
    set_level(value)
    try:
        yield
    finally:
        set_level(previous)


def enabled() -> ContextManager[None]:
    """Force recording on within the block (``full`` stays ``full``)."""
    return at_level(FULL if _level == FULL else ON)


def disabled() -> ContextManager[None]:
    """Force recording off within the block."""
    return at_level(OFF)


def is_enabled() -> bool:
    """Whether metrics and spans are recorded (level ``on`` or ``full``)."""
    return _level != OFF


def is_full() -> bool:
    """Whether the event log and training-health monitors run (level ``full``)."""
    return _level == FULL


def ring_append(ring: Deque[Any], item: Any, capacity: int) -> int:
    """Append ``item``, evicting the oldest entries past ``capacity``.

    The bounded-ring mechanism of the span store and the event log: the
    newest ``capacity`` items are kept.  Returns how many were evicted.
    """
    ring.append(item)
    evicted = 0
    while len(ring) > capacity:
        ring.popleft()
        evicted += 1
    return evicted


def quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted data (numpy's default).

    Kept as a small pure function so the tests can check it directly against
    ``np.quantile(..., method="linear")`` without this module importing numpy.
    """
    if not sorted_values:
        raise ValueError("quantile of empty data")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(sorted_values[low])
    fraction = position - low
    return float(sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction)


class Counter:
    """A monotonically increasing count (events, samples, examples)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += int(amount)

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time value (pool size, learning rate, bytes held)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class TimingHistogram:
    """Ring-buffer timing distribution with exact count/total and windowed quantiles.

    ``count``/``total`` cover every recorded sample; the quantiles (p50/p95)
    and ``max`` are computed over the most recent ``capacity`` samples so a
    long run's summary reflects its steady state without unbounded memory.
    """

    __slots__ = ("name", "capacity", "_buffer", "_next", "_count", "_total", "_max", "_lock")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._buffer: List[float] = []
        self._next = 0
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    def record(self, seconds: float) -> None:
        seconds = float(seconds)
        with self._lock:
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if len(self._buffer) < self.capacity:
                self._buffer.append(seconds)
            else:
                self._buffer[self._next] = seconds
                self._next = (self._next + 1) % self.capacity

    def samples(self) -> List[float]:
        """The retained (windowed) samples, unordered."""
        with self._lock:
            return list(self._buffer)

    def percentile(self, q: float) -> float:
        """Windowed quantile in [0, 1]; 0.0 when nothing was recorded."""
        data = sorted(self.samples())
        if not data:
            return 0.0
        return quantile(data, q)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            data = sorted(self._buffer)
            count, total, peak = self._count, self._total, self._max
        if not data:
            return {"count": 0, "total_s": 0.0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "max_s": 0.0}
        return {
            "count": count,
            "total_s": total,
            "mean_s": total / count,
            "p50_s": quantile(data, 0.50),
            "p95_s": quantile(data, 0.95),
            "max_s": peak,
        }

    def reset(self) -> None:
        with self._lock:
            self._buffer = []
            self._next = 0
            self._count = 0
            self._total = 0.0
            self._max = 0.0

    def state(self) -> Dict[str, object]:
        """Picklable snapshot — exact count/total/max plus windowed samples.

        The inverse, :meth:`merge_state`, folds a snapshot (possibly from
        another process) into this histogram: counts and totals add, the max
        takes the max, and the sample windows concatenate up to ``capacity``
        (the window is an unordered quantile reservoir, so concatenation is
        the right merge).
        """
        with self._lock:
            return {
                "count": self._count,
                "total_s": self._total,
                "max_s": self._max,
                "samples": list(self._buffer),
            }

    def merge_state(self, state: Dict[str, object]) -> None:
        samples = [float(s) for s in state.get("samples", ())]
        with self._lock:
            self._count += int(state.get("count", 0))
            self._total += float(state.get("total_s", 0.0))
            self._max = max(self._max, float(state.get("max_s", 0.0)))
            for sample in samples:
                if len(self._buffer) < self.capacity:
                    self._buffer.append(sample)
                else:
                    self._buffer[self._next] = sample
                    self._next = (self._next + 1) % self.capacity


class MetricsRegistry:
    """Named metric store; get-or-create accessors are thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, TimingHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, capacity: int = 4096) -> TimingHistogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = TimingHistogram(name, capacity)
            return metric

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in sorted(self._gauges.items())}

    def timings(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            histograms = list(self._histograms.items())
        return {name: h.summary() for name, h in sorted(histograms)}

    def histograms(self) -> Dict[str, TimingHistogram]:
        """The live histogram objects (Prometheus exposition reads samples)."""
        with self._lock:
            return dict(self._histograms)

    def reset(self) -> None:
        """Drop every metric (used between tests and bench runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _registry


def reset() -> None:
    """Clear the global registry (companion span store resets separately)."""
    _registry.reset()


# --------------------------------------------------------------- cheap helpers
# The hot paths call these; each is a flag check away from a no-op.

def increment(name: str, amount: int = 1) -> None:
    if is_enabled():
        _registry.counter(name).increment(amount)


def set_gauge(name: str, value: float) -> None:
    if is_enabled():
        _registry.gauge(name).set(value)


def record_timing(name: str, seconds: float) -> None:
    if is_enabled():
        _registry.histogram(name).record(seconds)
