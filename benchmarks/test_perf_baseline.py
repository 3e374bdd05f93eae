"""The instrumentation tripwire: the training suite's snapshot must stay whole.

Runs ``repro bench training --check`` once per session and asserts the shape
of its span/op snapshot (``results.snapshot``): every expected span path is
present with non-zero wall-clock time, the autograd profiler saw the core
primitives, and the counters are self-consistent.  No absolute timings are
asserted — those belong in ``BENCH_training.json`` diffs — but a future change
that silently de-instruments a hot path (or breaks the span tree's nesting)
fails here.
"""

from __future__ import annotations

import pytest

from repro.bench import EXPECTED_SPAN_PATHS

pytestmark = pytest.mark.telemetry


@pytest.fixture(scope="module")
def training(check_run):
    return check_run("training")


def test_snapshot_file_matches_in_memory(training):
    envelope, loaded = training
    assert loaded == envelope


def test_every_instrumented_span_has_nonzero_time(training):
    snap = training[0]["results"]["snapshot"]
    for path in EXPECTED_SPAN_PATHS:
        assert path in snap["spans"], f"span path {path!r} missing — de-instrumented?"
        summary = snap["spans"][path]
        assert summary["count"] > 0
        assert summary["total_s"] > 0.0
        assert summary["max_s"] >= summary["p95_s"] >= summary["p50_s"] >= 0.0


def test_span_tree_nests_consistently(training):
    spans = training[0]["results"]["snapshot"]["spans"]
    for path, summary in spans.items():
        if "/" not in path:
            continue
        parent = path.rsplit("/", 1)[0]
        assert parent in spans, f"orphan span path {path!r}"
        assert summary["total_s"] <= spans[parent]["total_s"] + 1e-9, (
            f"{path!r} reports more time than its parent"
        )


def test_autograd_ops_were_profiled(training):
    ops = training[0]["results"]["snapshot"]["ops"]
    for name in ("matmul", "add", "mul", "embedding"):
        assert ops.get(name, {}).get("count", 0) > 0, f"op {name!r} never profiled"
    assert ops["matmul"]["backward_count"] > 0
    assert ops["matmul"]["alloc_bytes"] > 0


def test_counters_are_self_consistent(training):
    snap = training[0]["results"]["snapshot"]
    counters = snap["counters"]
    assert counters["train.epochs"] == snap["meta"]["epochs_trained"]
    assert counters["train.batches"] >= counters["train.epochs"]
    assert counters["train.examples"] >= counters["train.batches"]
    assert counters["graph.nodes_resampled"] > 0
