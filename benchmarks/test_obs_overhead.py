"""Monitor-overhead tripwire: the observability plane must stay off the hot path.

Three guards, all on the seeded SMOKE training cycle:

* **instrumented cost** — every monitor observation runs inside the
  ``obs.monitor`` span, so its exact cost is known; the span total must stay
  under ``OVERHEAD_BUDGET`` (5%) of the monitored fit's wall-clock.  This is
  the precise guard: it cannot be fooled by machine noise;
* **paired wall-clock** — the same fit timed at telemetry level ``on``
  (monitors off) and ``full`` (monitors on), after a warmup fit, best-of-2
  per condition to damp allocator/cache jitter, must also stay within the 5% budget end to end, catching overhead that escapes
  the span (event serialisation, cadence bookkeeping);
* **absolute floor** — monitored throughput must stay within
  ``SLOWDOWN_BUDGET``× of the committed ``BENCH_training.json`` baseline, the
  same generous factor the training tripwire uses.

And the contract that makes overhead the *only* cost: monitored and
unmonitored predictions must be bitwise identical.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import nn, telemetry
from repro.experiments.configs import SMOKE
from repro.telemetry import events
from repro.telemetry import metrics as telemetry_metrics

pytestmark = pytest.mark.obs

#: monitoring may cost at most this fraction of the fit's wall-clock
OVERHEAD_BUDGET = 0.05
#: monitored throughput may undershoot the committed baseline by at most this
SLOWDOWN_BUDGET = 4.0

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"


def _smoke_fit():
    """One seeded SMOKE fit → (seconds, batches, obs-span seconds, predictions)."""
    from repro.cli import model_factory
    from repro.data import make_split

    dataset = SMOKE.datasets["ML-100K"]()
    nn.init.seed(SMOKE.seed)
    task = make_split(dataset, "item_cold", SMOKE.split_fraction, seed=SMOKE.seed)
    model = model_factory("AGNN", SMOKE)()
    telemetry_metrics.reset()
    telemetry.reset_spans()
    start = time.perf_counter()
    model.fit(task, SMOKE.train)
    elapsed = time.perf_counter() - start
    batches = telemetry_metrics.get_registry().counters().get("train.batches", 0)
    monitor_s = sum(
        summary["total_s"]
        for path, summary in telemetry.span_summaries().items()
        if path.endswith("obs.monitor")
    )
    predictions = model.predict(task.test_users, task.test_items)
    return elapsed, batches, monitor_s, predictions


@pytest.fixture(scope="module")
def paired_runs():
    """Warmup, then the same seeded fit twice per condition (level on/full)."""
    events.set_event_log(events.EventLog())
    with telemetry_metrics.at_level(telemetry_metrics.ON):
        _smoke_fit()  # warmup: page caches, lazy imports, allocator pools
        off_a = _smoke_fit()
        off_b = _smoke_fit()
    with telemetry_metrics.at_level(telemetry_metrics.FULL):
        on_a = _smoke_fit()
        on_b = _smoke_fit()
    monitor_events = events.get_event_log().events(kind="monitor")
    events.set_event_log(None)
    on_best = on_a if on_a[0] <= on_b[0] else on_b
    return {
        "off_s": min(off_a[0], off_b[0]),
        "on_s": on_best[0],
        "batches": on_best[1],
        "monitor_s": on_best[2],
        "off_pred": off_a[3],
        "on_pred": on_a[3],
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


def test_monitored_throughput_vs_committed_baseline(paired_runs):
    assert BASELINE_PATH.exists(), "BENCH_training.json missing — run `repro train-bench`"
    committed = json.loads(BASELINE_PATH.read_text())["training"]["batches_per_sec"]
    monitored_bps = paired_runs["batches"] / paired_runs["on_s"]
    assert monitored_bps * SLOWDOWN_BUDGET >= committed, (
        f"monitored training throughput collapsed: {monitored_bps:.1f} batches/s "
        f"vs committed {committed:.1f} (budget {SLOWDOWN_BUDGET}x)"
    )
