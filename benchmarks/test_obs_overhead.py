"""Monitor-overhead tripwire: the observability plane must stay off the hot path.

Three guards, all on the shared seeded D=40 smoke fit of ``repro bench``
(:func:`repro.bench.smoke_fit`):

* **instrumented cost** — every monitor observation runs inside the
  ``obs.monitor`` span, so its exact cost is known; the span total must stay
  under ``OVERHEAD_BUDGET`` (5%) of the monitored fit's wall-clock.  This is
  the precise guard: it cannot be fooled by machine noise;
* **paired wall-clock** — the same fit timed at telemetry level ``on``
  (monitors off) and ``full`` (monitors on), after a warmup fit, five runs
  per condition interleaved so machine drift lands on both, compared by
  median, must also stay within the 5% budget end to end, catching overhead
  that escapes the span (event serialisation, cadence bookkeeping);
* **absolute floor** — monitored throughput must stay within
  ``SLOWDOWN_BUDGET``× of the committed ``BENCH_training.json`` baseline, the
  same generous factor the training tripwire uses.

And the contract that makes overhead the *only* cost: monitored and
unmonitored predictions must be bitwise identical.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import telemetry
from repro.bench import smoke_fit, summarise
from repro.telemetry import events
from repro.telemetry import metrics as telemetry_metrics

pytestmark = pytest.mark.obs

#: monitoring may cost at most this fraction of the fit's wall-clock
OVERHEAD_BUDGET = 0.05
#: monitored throughput may undershoot the committed baseline by at most this
SLOWDOWN_BUDGET = 4.0
#: timed fits per condition
RUNS = 5


def _timed_fit(level: str):
    """One shared smoke fit at ``level`` → (seconds, batches, obs-span seconds, predictions)."""
    with telemetry_metrics.at_level(level):
        telemetry_metrics.reset()
        telemetry.reset_spans()
        start = time.perf_counter()
        fit = smoke_fit()
        elapsed = time.perf_counter() - start
        batches = telemetry_metrics.get_registry().counters().get("train.batches", 0)
        monitor_s = sum(
            summary["total_s"]
            for path, summary in telemetry.span_summaries().items()
            if path.endswith("obs.monitor")
        )
    predictions = fit.model.predict(fit.task.test_users, fit.task.test_items)
    return elapsed, batches, monitor_s, predictions


@pytest.fixture(scope="module")
def paired_runs():
    """Warmup, then the same seeded fit RUNS times per condition, interleaved."""
    events.set_event_log(events.EventLog())
    _timed_fit(telemetry_metrics.ON)  # warmup: page caches, lazy imports, allocator pools
    off, on = [], []
    for _ in range(RUNS):
        off.append(_timed_fit(telemetry_metrics.ON))
        on.append(_timed_fit(telemetry_metrics.FULL))
    monitor_events = events.get_event_log().events(kind="monitor")
    events.set_event_log(None)
    return {
        "off_s": summarise([run[0] for run in off])["median"],
        "on_s": summarise([run[0] for run in on])["median"],
        "batches": on[0][1],
        "monitor_s": summarise([run[2] for run in on])["median"],
        "off_pred": off[0][3],
        "on_pred": on[0][3],
        "monitor_events": monitor_events,
    }


def test_monitors_actually_ran(paired_runs):
    assert len(paired_runs["monitor_events"]) > 0
    assert {e["monitor"] for e in paired_runs["monitor_events"]} == {
        "grad_norm", "gate_saturation", "kl_collapse", "nan_watchdog",
    }


def test_monitored_predictions_bitwise_equal(paired_runs):
    np.testing.assert_array_equal(paired_runs["off_pred"], paired_runs["on_pred"])


def test_instrumented_monitor_cost_within_budget(paired_runs):
    monitor_s, on_s = paired_runs["monitor_s"], paired_runs["on_s"]
    assert monitor_s > 0.0, "obs.monitor span missing — monitors did not run"
    assert monitor_s <= on_s * OVERHEAD_BUDGET, (
        f"monitor observations cost {monitor_s * 1e3:.1f}ms of a {on_s:.2f}s fit "
        f"({monitor_s / on_s:.1%} > {OVERHEAD_BUDGET:.0%} budget) — did a monitor "
        "slide onto the per-batch hot path?"
    )


def test_paired_wall_clock_within_budget(paired_runs):
    on_s, off_s = paired_runs["on_s"], paired_runs["off_s"]
    assert on_s <= off_s * (1.0 + OVERHEAD_BUDGET), (
        f"monitored fit took {on_s:.2f}s vs {off_s:.2f}s unmonitored "
        f"({on_s / off_s:.3f}x > {1.0 + OVERHEAD_BUDGET}x budget)"
    )


def test_monitored_throughput_vs_committed_baseline(paired_runs, committed):
    committed_bps = committed("training")["metrics"]["batches_per_sec"]
    monitored_bps = paired_runs["batches"] / paired_runs["on_s"]
    assert monitored_bps * SLOWDOWN_BUDGET >= committed_bps, (
        f"monitored training throughput collapsed: {monitored_bps:.1f} batches/s "
        f"vs committed {committed_bps:.1f} (budget {SLOWDOWN_BUDGET}x)"
    )
