"""Trace-overhead tripwire: distributed tracing must stay off the hot path.

Three guards on the serving stack's tracing plane:

* **fresh overhead** — the same request-interleaved traced-vs-untraced phase
  ``repro load-bench`` records (mint a trace id, activate it with
  ``trace_scope`` and open an ingress span per request vs the pre-tracing
  status quo) run against a freshly trained bundle: the best-round traced/untraced p50 ratio must stay within
  ``OVERHEAD_BUDGET`` (5%).  Interleaving the conditions request by request
  keeps machine drift out of the ratio, so a failure here means the tracing
  path itself got more expensive;
* **zero span loss** — at the phase's request rate every span record must
  survive into the export: ``span_dropped == 0``.  Loss means MAX_RECORDS
  shrank, span volume per request grew, or drop accounting broke;
* **committed baseline** — the repo-root ``BENCH_load.json`` must carry the
  schema-v3 ``tracing`` section and itself certify the ≤5% overhead and
  zero loss it documents.

Tracing must also never perturb results — that contract is pinned bitwise by
``tests/serving/test_trace_integration.py``; this file only polices cost.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.serving.loadgen import LOAD_SCHEMA_VERSION, _tracing_phase
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import tracing

pytestmark = [pytest.mark.serving, pytest.mark.trace]

#: tracing may cost at most this fraction of an untraced request's p50
OVERHEAD_BUDGET = 0.05

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_load.json"


@pytest.fixture(scope="module")
def trace_phase():
    """Train a dim-40 smoke bundle and run the traced-vs-untraced phase."""
    from repro.core import AGNN
    from repro.data import make_split
    from repro.experiments.configs import get_scale
    from repro.nn import init as nn_init
    from repro.serving import InferenceEngine, export_bundle, load_bundle

    scale = get_scale("smoke")
    data = scale.datasets["ML-100K"]()
    nn_init.seed(scale.seed)
    task = make_split(data, "item_cold", scale.split_fraction, seed=scale.seed)
    model = AGNN(replace(scale.agnn, embedding_dim=40), rng_seed=scale.seed)
    model.fit(task, replace(scale.train, epochs=2))

    with tempfile.TemporaryDirectory(prefix="repro-trace-bench-") as tmp:
        bundle = load_bundle(
            export_bundle(model, task, Path(tmp) / "bundle", note="trace-bench")
        )
        telemetry_metrics.reset()
        tracing.reset_spans()
        with telemetry_metrics.enabled():
            engine = InferenceEngine(bundle, cache_size=0)
            rng = np.random.default_rng(0)
            users = rng.integers(0, engine.num_users, size=4096).astype(np.int64)
            items = rng.integers(0, engine.num_items, size=4096).astype(np.int64)
            return _tracing_phase(engine, users, items)


def test_traced_p50_within_budget(trace_phase):
    assert trace_phase["overhead_x"] <= 1.0 + OVERHEAD_BUDGET, (
        f"tracing costs {trace_phase['traced_p50_ms']:.3f}ms vs "
        f"{trace_phase['untraced_p50_ms']:.3f}ms untraced p50 "
        f"({trace_phase['overhead_x']:.3f}x > {1.0 + OVERHEAD_BUDGET}x budget) — "
        "did the mint/scope/span path grow?"
    )


def test_zero_span_loss_at_bench_rate(trace_phase):
    assert trace_phase["spans_recorded"] > 0, "tracing phase recorded no spans"
    assert trace_phase["span_dropped"] == 0, (
        f"{trace_phase['span_dropped']} span records silently dropped during "
        f"the tracing phase ({trace_phase['spans_recorded']} kept)"
    )


def test_phase_measured_enough_requests(trace_phase):
    # The ratio is meaningless on a handful of samples; the phase must keep
    # its statistical footing (interleaved rounds over >=100 requests).
    assert trace_phase["requests"] >= 100
    assert trace_phase["repeats"] >= 2


def test_committed_baseline_certifies_tracing():
    """The repo-root BENCH_load.json must carry and honour the tracing gate."""
    assert BASELINE_PATH.is_file(), "BENCH_load.json baseline missing from the repo root"
    committed = json.loads(BASELINE_PATH.read_text())
    assert committed["schema_version"] == LOAD_SCHEMA_VERSION
    section = committed.get("tracing")
    assert section, "BENCH_load.json has no tracing section — regenerate with `repro load-bench`"
    assert section["overhead_x"] <= 1.0 + OVERHEAD_BUDGET, (
        f"committed tracing overhead {section['overhead_x']:.3f}x exceeds the "
        f"{1.0 + OVERHEAD_BUDGET}x budget"
    )
    assert section["span_dropped"] == 0
    assert section["spans_recorded"] > 0
    assert committed["summary"]["trace_overhead_x"] == section["overhead_x"]
