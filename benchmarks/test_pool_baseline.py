"""The pool-regression tripwire: multi-process serving must stay correct & shared.

Reads the worker-pool sweep of ``repro bench serving --check`` (1, 2 and 4
workers at c=16, short cells) and asserts the properties the committed
``BENCH_serving.json`` pool section certifies:

* **parity** — every worker's responses are bitwise the single-process
  oracle, including after an onboarding broadcast (the acceptance gate);
* **no faults** — no request errors, no unplanned respawns during the sweep;
* **memory sharing** — proportional-set-size of the mapped bundle files grows
  sub-2x across the sweep (the kernel shares the pages; N workers ≉ N copies);
* **scaling** — at least 1.5x throughput at 4 workers vs 1 — asserted only on
  machines with ≥4 CPUs, because a container with fewer cores physically
  cannot scale out to four workers (the pool section records its
  ``cpu_count`` so the check degrades honestly rather than flaking).

No absolute req/s numbers are asserted — those live in ``BENCH_serving.json``
diffs.
"""

from __future__ import annotations

import os

import pytest

pytestmark = [pytest.mark.pool, pytest.mark.load, pytest.mark.serving]

SCALING_FLOOR = 1.5
RSS_GROWTH_CEILING = 2.0
MULTI_CORE = (os.cpu_count() or 1) >= 4


@pytest.fixture(scope="module")
def serving(check_run):
    return check_run("serving")[0]


def test_pool_section_shape(serving):
    pool = serving["results"]["pool"]
    for key in (
        "worker_counts",
        "concurrency",
        "cpu_count",
        "cells",
        "scaling_x",
        "rss_growth_x",
        "parity",
        "onboard_parity",
        "respawns",
        "errors",
        "ok",
    ):
        assert key in pool, f"pool section missing {key}"
    assert pool["worker_counts"] == [1, 2, 4]
    for workers in pool["worker_counts"]:
        cell = pool["cells"][str(workers)]
        for key in ("throughput_rps", "p99_ms", "requests", "errors", "mapped_pss_kb"):
            assert key in cell, f"pool cell {workers} missing {key}"


def test_pool_is_bitwise_oracle(serving):
    """The acceptance gate: pooled responses == single-process engine, bitwise,
    on every worker, before and after the onboarding broadcast."""
    pool = serving["results"]["pool"]
    assert pool["parity"], "a worker's scores diverged from the single-process oracle"
    assert pool["onboard_parity"], "workers diverged after the onboarding broadcast"
    assert pool["ok"] is True
    assert serving["ok"] is True


def test_no_faults_during_sweep(serving):
    pool = serving["results"]["pool"]
    assert pool["errors"] == 0
    assert pool["respawns"] == 0
    for workers in pool["worker_counts"]:
        cell = pool["cells"][str(workers)]
        assert cell["errors"] == 0
        assert cell["requests"] > 0


def test_mapped_state_is_shared_not_copied(serving):
    """N workers must NOT cost N copies of the bundle: summed proportional set
    size of the mapped files stays well under 2x from 1 worker to the max."""
    growth = serving["results"]["pool"]["rss_growth_x"]
    if growth is None:
        pytest.skip("no /proc smaps on this platform — cannot measure sharing")
    assert growth < RSS_GROWTH_CEILING, (
        f"mapped-state PSS grew {growth:.2f}x across the worker sweep — "
        "the bundle pages are being copied, not shared"
    )


@pytest.mark.skipif(not MULTI_CORE, reason="scaling floor needs >=4 CPUs")
def test_scaling_floor_at_four_workers(serving):
    pool = serving["results"]["pool"]
    assert max(pool["worker_counts"]) >= 4
    assert pool["scaling_x"] >= SCALING_FLOOR, (
        f"4-worker throughput is only {pool['scaling_x']:.2f}x the single-worker "
        f"cell (floor {SCALING_FLOOR}x)"
    )


class TestCommittedBaseline:
    """The repo-root BENCH_serving.json must itself certify the pool section."""

    @pytest.fixture(scope="class")
    def baseline(self, committed):
        return committed("serving")

    def test_pool_section_present_and_ok(self, baseline):
        pool = baseline["results"]["pool"]
        assert pool["ok"] is True
        assert pool["parity"]
        assert pool["onboard_parity"]
        assert pool["respawns"] == 0
        assert pool["errors"] == 0

    def test_committed_sharing_holds(self, baseline):
        growth = baseline["results"]["pool"]["rss_growth_x"]
        if growth is not None:
            assert growth < RSS_GROWTH_CEILING

    def test_committed_scaling_honest_about_cpus(self, baseline):
        """A baseline recorded on a >=4-CPU machine must show the scaling win;
        one recorded on fewer cores records the fact instead of a fiction."""
        pool = baseline["results"]["pool"]
        assert pool["cpu_count"] == baseline["env"]["nproc"]
        if pool["cpu_count"] >= 4 and max(pool["worker_counts"]) >= 4:
            assert pool["scaling_x"] >= SCALING_FLOOR

    def test_summary_mirrors_pool_section(self, baseline):
        metrics = baseline["metrics"]
        pool = baseline["results"]["pool"]
        assert metrics["pool_workers"] == max(pool["worker_counts"])
        assert metrics["pool_scaling_x"] == pool["scaling_x"]
        assert metrics["pool_rss_growth_x"] == pool["rss_growth_x"]
