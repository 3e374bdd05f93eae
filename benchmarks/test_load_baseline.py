"""The load-regression tripwire: coalescing must keep beating direct calls.

Reads the load phase of ``repro bench serving --check`` (closed loop at
concurrency 1 and 16, short open loop) and asserts the properties the
committed ``BENCH_serving.json`` certifies:

* the batched path is **bitwise** the direct path (the parity gate);
* no request is dropped, duplicated, or errored under load;
* coalescing actually happens (multi-request fused batches, not 1:1 ticks);
* at the top concurrency the coalesced path beats direct calls on *both*
  throughput and p99 latency — the reason the BatchingEngine exists.

No absolute req/s numbers are asserted — those live in ``BENCH_serving.json``
diffs — but a future change that breaks parity, drops requests, or regresses
coalescing below the direct path fails here.
"""

from __future__ import annotations

import pytest

pytestmark = [pytest.mark.load, pytest.mark.serving]


@pytest.fixture(scope="module")
def serving(check_run):
    return check_run("serving")[0]


def test_schema_shape(serving):
    closed = serving["results"]["closed_loop"]
    assert set(closed) == {"direct", "batched"}
    for mode in ("direct", "batched"):
        for concurrency, cell in closed[mode].items():
            for key in ("throughput_rps", "p50_ms", "p95_ms", "p99_ms", "requests", "errors"):
                assert key in cell, f"closed_loop.{mode}[{concurrency}] missing {key}"
    for key in (
        "top_concurrency",
        "direct_throughput_rps",
        "batched_throughput_rps",
        "direct_p99_ms",
        "batched_p99_ms",
        "throughput_gain_x",
        "p99_gain_x",
    ):
        assert key in serving["metrics"], f"metrics missing {key}"


def test_batched_path_is_bitwise_direct(serving):
    parity = serving["results"]["parity"]
    assert parity["ok"], "coalesced scores diverged from direct scores"
    assert parity["max_abs_diff"] == 0.0


def test_no_requests_lost_or_errored(serving):
    closed = serving["results"]["closed_loop"]
    for mode in ("direct", "batched"):
        for concurrency, cell in closed[mode].items():
            assert cell["errors"] == 0, f"{mode} c={concurrency} saw request errors"
            assert cell["requests"] > 0
    assert serving["results"]["batching"]["fallbacks"] == 0
    assert serving["results"]["batching"]["shed"] == 0
    assert serving["ok"] is True


def test_coalescing_actually_happened(serving):
    batching = serving["results"]["batching"]
    assert batching["ticks"] > 0
    assert batching["coalesced_requests"] > 0, "every tick served a single request — no fusion"


def test_coalescing_beats_direct_at_top_concurrency(serving):
    metrics = serving["metrics"]
    assert metrics["top_concurrency"] == 16
    assert metrics["throughput_gain_x"] > 1.0, (
        f"batched {metrics['batched_throughput_rps']:.0f} req/s no longer beats "
        f"direct {metrics['direct_throughput_rps']:.0f} req/s at c=16"
    )
    assert metrics["p99_gain_x"] > 1.0, (
        f"batched p99 {metrics['batched_p99_ms']:.2f}ms no longer beats "
        f"direct p99 {metrics['direct_p99_ms']:.2f}ms at c=16"
    )


def test_committed_baseline_is_healthy(committed):
    """The repo-root BENCH_serving.json must itself certify the win it documents."""
    baseline = committed("serving")
    assert baseline["ok"] is True
    assert baseline["results"]["parity"]["ok"]
    assert baseline["metrics"]["batched_max_abs_diff"] == 0.0
    assert baseline["metrics"]["throughput_gain_x"] > 1.0
    assert baseline["metrics"]["p99_gain_x"] > 1.0
