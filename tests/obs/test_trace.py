"""Trace wire triples + context-aware spans: minting, scoping, propagation, loss.

Unit coverage for the tracing foundation: the wire triple round-trip through
``trace_scope``, the contextvar scope, parent/child span-id chains within and
across simulated hops, and the span-loss accounting that replaced silent
ring-buffer truncation.
"""

import threading

import pytest

from repro.telemetry import metrics, tracing
from repro.telemetry.tracing import new_trace_id, trace_scope

pytestmark = [pytest.mark.obs, pytest.mark.trace]


def _mint(request_id):
    """The root wire triple HTTP ingress activates: no parent span yet."""
    return (new_trace_id(), "", request_id)


class TestTraceContext:
    def test_mint_is_unique_and_carries_request_id(self):
        a = _mint("req-1")
        b = _mint("req-2")
        assert a[0] != b[0]
        assert a[2] == "req-1"
        assert a[1] == ""

    def test_wire_round_trip(self):
        wire = ("t1", "s1", "r1")
        with trace_scope(wire) as active:
            assert active == wire
            assert tracing.current_trace() == wire
        with trace_scope(None) as active:
            assert active is None

    def test_no_ambient_context_by_default(self):
        assert tracing.current_trace() is None

    def test_scope_activates_and_restores(self):
        wire = _mint("req-scope")
        with trace_scope(wire):
            active = tracing.current_trace()
            assert active[0] == wire[0]
            assert active[2] == "req-scope"
        assert tracing.current_trace() is None

    def test_nested_none_scope_suppresses_trace(self):
        with trace_scope(_mint("req-outer")):
            with trace_scope(None):
                assert tracing.current_trace() is None
            assert tracing.current_trace() is not None

    def test_current_trace_parents_to_innermost_live_span(self):
        wire = _mint("req-parent")
        with trace_scope(wire):
            with tracing.span("outer"):
                outer_id = tracing.current_span_id()
                assert tracing.current_trace() == (wire[0], outer_id, "req-parent")


class TestSpanRecords:
    def test_records_carry_trace_and_process_identity(self):
        wire = _mint("req-ids")
        with trace_scope(wire):
            with tracing.span("a"):
                with tracing.span("b"):
                    pass
        records = {r["name"]: r for r in tracing.export_spans()}
        assert records["a"]["trace_id"] == wire[0]
        assert records["b"]["trace_id"] == wire[0]
        assert records["b"]["parent_span_id"] == records["a"]["span_id"]
        assert records["a"]["request_id"] == "req-ids"
        assert records["a"]["pid"] > 0
        assert records["a"]["tid"] == threading.get_ident()
        assert records["a"]["ts"] > 0

    def test_remote_hop_parents_to_wire_span(self):
        """A span on the far side of a hop parents to the sender's span."""
        with trace_scope(_mint("req-hop")):
            with tracing.span("ingress"):
                wire = tracing.current_trace()
        # Simulate the receiving process/thread re-activating the wire triple.
        token = tracing.activate_trace(wire)
        try:
            with tracing.span("remote"):
                pass
        finally:
            tracing.deactivate_trace(token)
        records = {r["name"]: r for r in tracing.export_spans()}
        assert records["remote"]["parent_span_id"] == records["ingress"]["span_id"]
        assert records["remote"]["trace_id"] == records["ingress"]["trace_id"]

    def test_annotate_attaches_attrs(self):
        with tracing.span("tick") as s:
            s.annotate(requests=3)
        (record,) = tracing.export_spans()
        assert record["attrs"] == {"requests": 3}

    def test_untraced_span_has_empty_trace_fields(self):
        with tracing.span("plain"):
            pass
        (record,) = tracing.export_spans()
        assert record["trace_id"] == ""
        assert record["request_id"] == ""
        assert record["parent_span_id"] == ""


class TestSpanLossAccounting:
    def test_dropped_records_are_counted_and_exported(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_RECORDS", 3)
        for i in range(5):
            with tracing.span("s"):
                pass
        exported = tracing.export_spans(include_dropped=True)
        assert len(exported["records"]) == 3
        assert exported["dropped"] == 2
        assert tracing.dropped_records() == 2
        assert metrics.get_registry().counters()[tracing.DROPPED_COUNTER] == 2

    def test_summaries_can_surface_drop_count(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_RECORDS", 1)
        for _ in range(3):
            with tracing.span("s"):
                pass
        summaries = tracing.span_summaries(include_dropped=True)
        assert summaries["(dropped)"]["count"] == 2.0
        # Aggregates are unaffected by raw-record loss.
        assert summaries["s"]["count"] == 3

    def test_snapshot_exposes_span_dropped(self, monkeypatch):
        from repro.telemetry import report

        monkeypatch.setattr(tracing, "MAX_RECORDS", 1)
        for _ in range(2):
            with tracing.span("s"):
                pass
        snap = report.snapshot()
        assert snap["meta"]["span_dropped"] == 1

    def test_reset_clears_drop_count(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_RECORDS", 1)
        for _ in range(2):
            with tracing.span("s"):
                pass
        tracing.reset_spans()
        assert tracing.dropped_records() == 0
        assert tracing.export_spans() == []
