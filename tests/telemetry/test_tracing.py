"""Span nesting, paths, exception safety, decorator form, disabled mode."""

from __future__ import annotations

import pytest

from collections import deque

from repro import telemetry
from repro.telemetry import events, metrics, tracing
from repro.telemetry.tracing import current_path, export_spans, span, span_summaries

pytestmark = pytest.mark.telemetry


class TestNesting:
    def test_paths_encode_the_stack(self):
        with span("fit"):
            assert current_path() == "fit"
            with span("epoch"):
                assert current_path() == "fit/epoch"
                with span("batch"):
                    assert current_path() == "fit/epoch/batch"
            assert current_path() == "fit"
        assert current_path() == ""
        assert set(span_summaries()) == {"fit", "fit/epoch", "fit/epoch/batch"}

    def test_sibling_spans_share_a_path(self):
        with span("outer"):
            for _ in range(3):
                with span("inner"):
                    pass
        summary = span_summaries()["outer/inner"]
        assert summary["count"] == 3
        assert summary["total_s"] >= summary["p50_s"] >= 0.0

    def test_durations_are_positive_and_ordered(self):
        with span("outer"):
            with span("inner"):
                pass
        summaries = span_summaries()
        assert summaries["outer"]["total_s"] >= summaries["outer/inner"]["total_s"] > 0.0

    def test_export_is_completion_ordered_and_flagged(self):
        with span("a"):
            with span("b"):
                pass
        records = export_spans()
        assert [r["path"] for r in records] == ["a/b", "a"]
        assert all(r["ok"] for r in records)
        assert records[0]["depth"] == 1 and records[1]["depth"] == 0

    def test_rejects_slash_in_name(self):
        with pytest.raises(ValueError):
            span("a/b")


class TestExceptionSafety:
    def test_stack_unwinds_and_duration_is_recorded(self):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        assert current_path() == ""  # nothing leaked on the stack
        summaries = span_summaries()
        assert summaries["outer"]["count"] == 1
        assert summaries["outer/inner"]["count"] == 1
        assert all(not r["ok"] for r in export_spans())

    def test_span_after_exception_nests_from_the_root(self):
        with pytest.raises(ValueError):
            with span("failed"):
                raise ValueError
        with span("next"):
            assert current_path() == "next"


class TestDecorator:
    def test_decorated_function_records_per_call(self):
        @span("work")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work(1) == 2
        assert span_summaries()["work"]["count"] == 2

    def test_decorated_function_nests_under_caller(self):
        @span("leaf")
        def leaf():
            return current_path()

        with span("root"):
            assert leaf() == "root/leaf"
        assert "root/leaf" in span_summaries()


class TestDisabledMode:
    def test_disabled_spans_record_nothing(self):
        with telemetry.disabled():
            with span("invisible"):
                with span("also-invisible"):
                    pass
        assert span_summaries() == {}
        assert export_spans() == []

    def test_disabled_spans_keep_no_stack(self):
        with telemetry.disabled():
            with span("a"):
                assert current_path() == ""

    def test_reenabling_mid_run_stays_balanced(self):
        with telemetry.disabled():
            with span("outer"):  # not recorded
                pass
        with span("outer"):  # recorded, fresh stack
            pass
        assert span_summaries()["outer"]["count"] == 1


class TestBoundedRings:
    """The span store and the event log share one ring: newest kept, oldest evicted."""

    def test_ring_append_evicts_oldest_and_counts(self):
        ring = deque()
        evicted = [metrics.ring_append(ring, i, 3) for i in range(5)]
        assert list(ring) == [2, 3, 4]
        assert evicted == [0, 0, 0, 1, 1]

    def test_span_store_keeps_the_most_recent_records(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_RECORDS", 3)
        for i in range(5):
            with span(f"s{i}"):
                pass
        exported = tracing.export_spans(include_dropped=True)
        assert [r["name"] for r in exported["records"]] == ["s2", "s3", "s4"]
        assert exported["dropped"] == 2
        assert tracing.dropped_records() == 2
        assert metrics.get_registry().counters()[tracing.DROPPED_COUNTER] == 2

    def test_event_log_keeps_the_latest_events(self):
        log = events.EventLog(capacity=100)
        for i in range(1000):
            log.emit("e", i=i)
        kept = log.events()
        assert [e["i"] for e in kept] == list(range(900, 1000))
        assert [e["seq"] for e in kept] == list(range(901, 1001))
        assert log.dropped == 900
