"""The graph-scaling tripwire against the committed ``BENCH_graphs.json``.

``repro bench graphs`` records the inverted-index candidate builder's scaling
behaviour and its parity-sweep overlap.  These tests hold every change to that
record:

* the committed envelope must be well-formed and say ``ok``;
* the committed parity overlap must clear the 0.95 score-recall floor — the
  same floor ``assert_overlap_floor`` enforces on a live sweep;
* the committed build-time exponent (log–log fit of median build times) must
  stay sublinear-ish (<= 1.5) with the curve measured up to at least
  n = 100 000, so a regression that reintroduces quadratic candidate
  generation cannot land by simply re-running the bench;
* a *fresh* ``check`` run's parity sweep must still clear the committed
  floor, catching code drift that the frozen JSON alone would miss.

Absolute build-time milliseconds belong in ``BENCH_graphs.json`` diffs
reviewed per PR, not in pass/fail assertions — machines differ; exponents and
overlap do not.
"""

from __future__ import annotations

import pytest

from repro.bench import MIN_SCALING_N, SUBLINEAR_EXPONENT
from repro.graphs.parity import assert_overlap_floor

pytestmark = pytest.mark.graphs

OVERLAP_FLOOR = 0.95


@pytest.fixture(scope="module")
def baseline(committed) -> dict:
    return committed("graphs")


def test_committed_payload_shape(baseline):
    assert baseline["schema_version"] == 1
    assert baseline["ok"] is True
    for series in ("approx", "exact"):
        points = baseline["results"][series]
        assert len(points) >= 2
        for point in points:
            assert point["n"] > 0 and point["build_ms"]["median"] > 0


def test_committed_overlap_clears_floor(baseline):
    overlap = baseline["results"]["overlap"]["aggregate"]
    assert overlap["ok"] is True
    assert overlap["floor"] >= OVERLAP_FLOOR
    assert overlap["min_case_score_recall"] >= OVERLAP_FLOOR
    assert overlap["mean_score_recall"] >= OVERLAP_FLOOR


def test_committed_scaling_is_sublinear_at_scale(baseline):
    # The bench only certifies an exponent when the grid reaches real scale;
    # the tripwire demands both: scale reached AND exponent under the bar.
    metrics = baseline["metrics"]
    assert metrics["max_n"] >= MIN_SCALING_N
    assert metrics["max_n"] >= 100_000, (
        "the graphs grid shrank below n=1e5 — the sublinear claim is untested"
    )
    assert metrics["approx_exponent"] is not None
    assert metrics["approx_exponent"] <= SUBLINEAR_EXPONENT, (
        f"inverted build exponent {metrics['approx_exponent']:.2f} exceeds "
        f"{SUBLINEAR_EXPONENT} — candidate generation regressed toward quadratic"
    )


def test_committed_exact_curve_is_superlinear(baseline):
    # Sanity on the comparison itself: the exact all-pairs build must show its
    # quadratic character, else the grid is too small to mean anything.
    assert baseline["metrics"]["exact_exponent"] is not None
    assert baseline["metrics"]["exact_exponent"] > SUBLINEAR_EXPONENT


def test_fresh_sweep_still_clears_committed_floor(baseline, check_run):
    floor = baseline["results"]["overlap"]["aggregate"]["floor"]
    envelope, loaded = check_run("graphs")
    assert loaded == envelope
    sweep = envelope["results"]["overlap"]
    assert sweep["aggregate"]["ok"], sweep["aggregate"]
    assert_overlap_floor(sweep, floor=floor)

