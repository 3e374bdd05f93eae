"""Integration: a real fit emits the expected span tree; snapshots round-trip."""

from __future__ import annotations

import json

import pytest

from repro import nn, telemetry
from repro.core import AGNN, AGNNConfig
from repro.telemetry import report, span_summaries
from repro.bench import EXPECTED_SPAN_PATHS, metered_fit
from repro.train import TrainConfig

pytestmark = pytest.mark.telemetry

FAST = TrainConfig(epochs=2, batch_size=64, learning_rate=0.01, patience=None)
SMALL = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=10.0)

#: top-level snapshot keys — the stable schema future tooling parses
SNAPSHOT_KEYS = {"schema_version", "meta", "counters", "gauges", "spans", "timings", "ops"}
SUMMARY_KEYS = {"count", "total_s", "mean_s", "p50_s", "p95_s", "max_s"}


class TestFitSpanTree:
    def test_fit_emits_epoch_over_batch_tree(self, ics_task):
        nn.init.seed(0)
        model = AGNN(SMALL, rng_seed=0)
        model.fit(ics_task, FAST)
        summaries = span_summaries()

        # The hierarchy is encoded in the paths: fit > epoch > batch.
        assert "fit" in summaries
        assert "fit/epoch" in summaries
        assert "fit/epoch/batch" in summaries
        assert summaries["fit"]["count"] == 1
        assert summaries["fit/epoch"]["count"] == FAST.epochs
        assert summaries["fit/epoch/batch"]["count"] >= FAST.epochs  # ≥1 batch/epoch

        # Nested totals cannot exceed their parents'.
        assert summaries["fit"]["total_s"] >= summaries["fit/epoch"]["total_s"]
        assert summaries["fit/epoch"]["total_s"] >= summaries["fit/epoch/batch"]["total_s"]

        # The AGNN-specific hot paths hang off the right parents.
        assert "fit/prepare/agnn.prepare" in summaries
        assert "fit/epoch/agnn.resample/graph.neighbours" in summaries
        assert "fit/epoch/batch/autograd.backward" in summaries

    def test_fit_counters_match_history(self, ics_task):
        nn.init.seed(0)
        model = AGNN(SMALL, rng_seed=0)
        history = model.fit(ics_task, FAST)
        counters = telemetry.get_registry().counters()
        assert counters["train.epochs"] == history.num_epochs == FAST.epochs
        assert counters["train.batches"] == counters["train.epochs"] * -(
            -len(ics_task.train_users) // FAST.batch_size
        )
        assert counters["train.examples"] == FAST.epochs * len(ics_task.train_users)


class TestSnapshotSchema:
    def test_snapshot_round_trips_through_json(self, ics_task, tmp_path):
        nn.init.seed(0)
        model = AGNN(SMALL, rng_seed=0)
        model.fit(ics_task, FAST)

        path = tmp_path / "telemetry.json"
        written = report.write_snapshot(str(path), note="integration")
        loaded = json.loads(path.read_text())

        assert loaded == written  # everything JSON-serialisable, nothing lossy
        assert set(loaded) == SNAPSHOT_KEYS
        assert loaded["schema_version"] == report.SCHEMA_VERSION
        assert loaded["meta"]["note"] == "integration"
        for summary in loaded["spans"].values():
            assert set(summary) == SUMMARY_KEYS
        assert all(isinstance(v, int) for v in loaded["counters"].values())

    def test_telemetry_bench_writes_the_baseline(self, tmp_path):
        # the training suite's metered fit: its snapshot is the span/op
        # section of BENCH_training.json and must survive JSON unchanged
        fit, snap = metered_fit()
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snap))
        loaded = json.loads(path.read_text())
        assert loaded == snap
        assert set(loaded) == SNAPSHOT_KEYS
        assert loaded["meta"]["epochs_trained"] == fit.history.num_epochs
        for expected in EXPECTED_SPAN_PATHS:
            assert expected in loaded["spans"], f"missing span path {expected}"
            assert loaded["spans"][expected]["total_s"] > 0.0
        assert loaded["ops"], "autograd profiler stats missing"
        assert loaded["ops"]["matmul"]["count"] > 0
