"""Trace-overhead tripwire: distributed tracing must stay off the hot path.

Three guards on the serving stack's tracing plane, read from the tracing
phase of ``repro bench serving --check``:

* **fresh overhead** — per request, mint a trace id, activate it with
  ``trace_scope`` and open an ingress span, against the pre-tracing status
  quo, on a freshly trained D=40 bundle: the *median* over rounds of the
  traced/untraced p50 ratio must stay within ``OVERHEAD_BUDGET`` (5%).
  Interleaving the conditions request by request keeps machine drift out of
  each round's ratio, so a failure here means the tracing path itself got
  more expensive;
* **zero span loss** — at the phase's request rate every span record must
  survive into the export: ``span_dropped == 0``.  Loss means MAX_RECORDS
  shrank, span volume per request grew, or drop accounting broke;
* **committed baseline** — the repo-root ``BENCH_serving.json`` must carry
  the tracing section and itself certify the ≤5% overhead and zero loss it
  documents.

Tracing must also never perturb results — that contract is pinned bitwise by
``tests/serving/test_trace_integration.py``; this file only polices cost.
"""

from __future__ import annotations

import pytest

pytestmark = [pytest.mark.serving, pytest.mark.trace]

#: tracing may cost at most this fraction of an untraced request's p50
OVERHEAD_BUDGET = 0.05


@pytest.fixture(scope="module")
def trace_phase(check_run):
    return check_run("serving")[0]["results"]["tracing"]


def test_traced_p50_within_budget(trace_phase):
    overhead = trace_phase["overhead_x"]["median"]
    assert overhead <= 1.0 + OVERHEAD_BUDGET, (
        f"tracing costs {overhead:.3f}x the untraced p50 (median over "
        f"{trace_phase['rounds']} rounds: {trace_phase['round_overhead_x']}) — "
        f"over the {1.0 + OVERHEAD_BUDGET}x budget; did the mint/scope/span path grow?"
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
    assert trace_phase["rounds"] >= 2


def test_committed_baseline_certifies_tracing(committed):
    """The repo-root BENCH_serving.json must carry and honour the tracing gate."""
    baseline = committed("serving")
    section = baseline["results"].get("tracing")
    assert section, "BENCH_serving.json has no tracing section — run `repro bench serving`"
    assert section["overhead_x"]["median"] <= 1.0 + OVERHEAD_BUDGET, (
        f"committed tracing overhead {section['overhead_x']['median']:.3f}x exceeds the "
        f"{1.0 + OVERHEAD_BUDGET}x budget"
    )
    assert section["span_dropped"] == 0
    assert section["spans_recorded"] > 0
    assert baseline["metrics"]["trace_overhead_x"] == section["overhead_x"]["median"]
