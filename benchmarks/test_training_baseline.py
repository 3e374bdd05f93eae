"""The training-throughput tripwire against the committed ``BENCH_training.json``.

Runs ``repro bench training --check`` (the same seeded D=40 smoke fit as the
``full`` preset, with a smaller graph micro-benchmark) and holds it to the
committed envelope:

* determinism must hold — repeated seeded runs bitwise-equal, and the fresh
  RMSE must reproduce the committed one exactly (same seed, same code path);
* throughput may drift with the machine, so the tripwire is generous: a fresh
  run must stay within ``SLOWDOWN_BUDGET``× of the committed batches/sec —
  catching an accidentally reverted hot path, not a noisy neighbour;
* the vectorised pool extraction and the fused graph build must not be
  slower than the reference implementations they replaced (median timings).

Absolute millisecond numbers belong in ``BENCH_training.json`` diffs reviewed
per PR, not in pass/fail assertions.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.perf

# A fresh run may be slower than the committed baseline by at most this factor
# (shared CI machines are noisy; a reverted optimisation costs well over 4x
# on the paths this guards).
SLOWDOWN_BUDGET = 4.0


@pytest.fixture(scope="module")
def baseline(committed) -> dict:
    return committed("training")


@pytest.fixture(scope="module")
def fresh(check_run) -> dict:
    return check_run("training")[0]


def test_committed_baseline_shape(baseline):
    assert baseline["schema_version"] == 1
    training = baseline["results"]["training"]
    for key in (
        "batches_per_sec",
        "batches",
        "fit_s",
        "encode_total_s",
        "backward_total_s",
        "dedup_ratio",
        "unique_nodes",
        "total_nodes",
    ):
        assert key in training, f"results.training.{key} missing from BENCH_training.json"
    assert baseline["metrics"]["repeat_runs_bitwise_equal"] is True
    assert baseline["metrics"]["pool_speedup"] >= 1.0
    assert baseline["metrics"]["build_speedup"] >= 1.0


def test_fresh_run_is_deterministic(fresh):
    determinism = fresh["results"]["determinism"]
    assert determinism["repeat_runs_bitwise_equal"] is True
    assert determinism["test_pairs"] > 0
    assert fresh["ok"] is True


def test_fresh_run_reproduces_committed_quality(fresh, baseline):
    # Same seed, same scale, same code: the committed RMSE must reproduce
    # bitwise.  A drift here means the numerics changed without the sanctioned
    # golden re-freeze (repro verify --update-goldens + regenerated baseline).
    assert fresh["metrics"]["rmse"] == baseline["metrics"]["rmse"]
    fresh_training, committed_training = fresh["results"]["training"], baseline["results"]["training"]
    for key in ("batches", "unique_nodes", "total_nodes"):
        assert fresh_training[key] == committed_training[key], key


def test_dedup_actually_deduplicates(fresh):
    training = fresh["results"]["training"]
    assert 0.0 < training["dedup_ratio"] < 1.0
    assert training["unique_nodes"] < training["total_nodes"]


def test_throughput_within_budget_of_committed(fresh, baseline):
    fresh_bps = fresh["metrics"]["batches_per_sec"]
    committed_bps = baseline["metrics"]["batches_per_sec"]
    assert fresh_bps > 0
    assert fresh_bps * SLOWDOWN_BUDGET >= committed_bps, (
        f"training throughput collapsed: {fresh_bps:.1f} batches/s vs "
        f"committed {committed_bps:.1f} (budget {SLOWDOWN_BUDGET}x) — "
        "was a hot-path optimisation reverted?"
    )


def test_fused_graph_build_not_slower_than_reference(fresh):
    # 0.8 rather than 1.0: tiny shapes + a noisy machine can jitter the ratio,
    # but a genuinely reverted fusion lands far below this.
    assert fresh["metrics"]["pool_speedup"] >= 0.8
    assert fresh["metrics"]["build_speedup"] >= 0.8
