"""The continuous-learning tripwire: warm refresh must stay cheap and safe.

Runs the stream → warm-refresh → gate → hot-swap-under-load matrix of
``repro bench refresh --check`` (seconds-scale: tiny fits, few swap clients)
and asserts the properties the committed ``BENCH_refresh.json`` certifies:

* the warm-started refresh beats the from-scratch fit on wall-clock while
  matching its holdout RMSE;
* the healthy refresh passes the promotion gates;
* hot-swapping under concurrent load drops, errors, and mixes nothing;
* a poisoned refresh is rejected by the gates AND by the swap probe, with
  the old engine still serving.

No absolute timings are asserted — those live in ``BENCH_refresh.json``
diffs — but a future change that breaks warm-start, the gates, or swap atomicity
fails here.
"""

from __future__ import annotations

import pytest

from repro.bench import SCHEMA_VERSION
from repro.cli import main

pytestmark = [pytest.mark.live, pytest.mark.serving]


@pytest.fixture(scope="module")
def refresh_snapshot(check_run):
    return check_run("refresh")


def test_snapshot_file_matches_in_memory(refresh_snapshot):
    envelope, loaded = refresh_snapshot
    assert loaded == envelope
    assert loaded["schema_version"] == SCHEMA_VERSION


def test_schema_shape(refresh_snapshot):
    payload = refresh_snapshot[0]["results"]
    for key in (
        "warm_fit_s",
        "scratch_fit_s",
        "speedup_x",
        "warm_rmse",
        "scratch_rmse",
        "rmse_ratio",
        "holdout_pairs",
        "promotion_accepted",
    ):
        assert key in payload["refresh"], f"refresh section missing {key}"
    for key in ("threads", "requests", "completed", "dropped", "errors", "swaps"):
        assert key in payload["swap"], f"swap section missing {key}"


def test_warm_start_beats_scratch(refresh_snapshot):
    payload = refresh_snapshot[0]["results"]
    refresh = payload["refresh"]
    assert refresh["speedup_x"] > 1.0, (
        f"warm refresh ({refresh['warm_fit_s']:.2f}s) no longer beats "
        f"from-scratch ({refresh['scratch_fit_s']:.2f}s)"
    )
    assert refresh["promotion_accepted"], (
        f"healthy refresh was rejected: {refresh['promotion_reasons']}"
    )


def test_hot_swap_under_load_is_clean(refresh_snapshot):
    payload = refresh_snapshot[0]["results"]
    swap = payload["swap"]
    assert swap["errors"] == 0, f"swap-phase errors: {swap['error_samples']}"
    assert swap["dropped"] == 0
    assert swap["mismatched_responses"] == 0, "a response mixed bundles mid-swap"
    assert swap["completed"] == swap["requests"]
    assert swap["swaps"] > 0


def test_poisoned_refresh_rejected_everywhere(refresh_snapshot):
    payload = refresh_snapshot[0]["results"]
    rejection = payload["rejection"]
    assert rejection["gate_rejected"], "NaN-poisoned refresh passed the gates"
    assert rejection["gate_reasons"]
    assert rejection["swap_rejected"], "poisoned bundle passed the swap probe"
    assert rejection["old_engine_kept"], "failed swap displaced the live engine"


def test_overall_ok(refresh_snapshot):
    envelope, _ = refresh_snapshot
    assert envelope["ok"] is True


def test_cli_check_mode_passes(tmp_path):
    assert main(["bench", "refresh", "--check", "--output", str(tmp_path / "b.json")]) == 0


def test_committed_baseline_is_healthy(committed):
    """The repo-root BENCH_refresh.json must certify the win it documents."""
    baseline = committed("refresh")
    assert baseline["schema_version"] == SCHEMA_VERSION
    assert baseline["ok"] is True
    assert baseline["preset"] == "full", "committed baseline must be a full run"
    committed = baseline["results"]
    refresh = committed["refresh"]
    assert refresh["speedup_x"] >= 1.5, (
        f"committed warm-start speedup {refresh['speedup_x']:.2f}x fell below 1.5x"
    )
    assert refresh["rmse_ratio"] <= 1.001, (
        f"committed warm RMSE drifted {refresh['rmse_ratio']:.4f}x past scratch"
    )
    assert refresh["promotion_accepted"]
    swap = committed["swap"]
    assert swap["errors"] == 0
    assert swap["dropped"] == 0
    assert swap["mismatched_responses"] == 0
    assert committed["rejection"]["gate_rejected"]
    assert committed["rejection"]["swap_rejected"]
    assert committed["rejection"]["old_engine_kept"]
