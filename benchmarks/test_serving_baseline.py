"""The serving-regression tripwire: the engine phase must stay instrumented.

Runs ``repro bench serving --check`` once per session and asserts the engine
phase (export → load → engine → HTTP) and its telemetry snapshot: every
``serve.*`` span is present with non-zero time, the LRU-cached score path
beats the cold path, the engine reproduces the offline model, and the cache
counters are self-consistent.  No absolute latencies are asserted — those
belong in ``BENCH_serving.json`` diffs — but a future change that de-instruments
the serving path, breaks offline parity, or makes the cache useless fails
here.
"""

from __future__ import annotations

import pytest

from repro.bench import EXPECTED_SERVING_SPANS

pytestmark = [pytest.mark.telemetry, pytest.mark.serving]


@pytest.fixture(scope="module")
def serving(check_run):
    return check_run("serving")


def test_snapshot_file_matches_in_memory(serving):
    envelope, loaded = serving
    assert loaded == envelope


def test_every_serving_span_has_nonzero_time(serving):
    snap = serving[0]["results"]["snapshot"]
    for path in EXPECTED_SERVING_SPANS:
        assert path in snap["spans"], f"span path {path!r} missing — de-instrumented?"
        summary = snap["spans"][path]
        assert summary["count"] > 0
        assert summary["total_s"] > 0.0


def test_cached_scores_beat_cold_path(serving):
    metrics = serving[0]["metrics"]
    assert metrics["score_cached_p50_ms"] < metrics["score_cold_p50_ms"], (
        "LRU score cache is no longer faster than recomputation"
    )
    assert metrics["cached_speedup"] > 1.0


def test_engine_matches_offline_model(serving):
    assert serving[0]["metrics"]["offline_max_abs_diff"] == pytest.approx(0.0, abs=1e-10)


def test_onboarding_produced_live_nodes(serving):
    engine = serving[0]["results"]["engine"]
    counters = serving[0]["results"]["snapshot"]["counters"]
    assert counters["serve.onboarded.users"] >= 1  # one direct + one via HTTP
    assert counters["serve.onboarded.items"] >= 1
    assert engine["topn_size"] == 10
    low, high = 1.0, 5.0
    assert low <= engine["onboard_cross_score"] <= high


def test_cache_counters_are_self_consistent(serving):
    counters = serving[0]["results"]["snapshot"]["counters"]
    assert counters["serve.scores"] == counters["serve.cache.hits"] + counters["serve.cache.misses"]
    assert counters["serve.cache.hits"] > 0
    assert counters["serve.cache.misses"] > 0
    assert counters["serve.requests"] >= 5  # healthz, score, topn, onboard, metrics
    assert counters.get("serve.request_errors", 0) == 0


def test_serving_meta_shape(serving):
    _, loaded = serving
    engine = loaded["results"]["engine"]
    for key in ("score_cold_ms", "score_cached_ms"):
        for stat in ("median", "iqr", "n"):
            assert isinstance(engine[key][stat], (int, float)), f"engine.{key}.{stat} missing"
    assert isinstance(engine["max_abs_diff_vs_offline"], float)
    assert engine["pairs"] > 0
