"""Counters, gauges, histograms, the registry, and the enable switch."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry.metrics import (
    ENV_VAR,
    TimingHistogram,
    get_registry,
    is_enabled,
    quantile,
)

pytestmark = pytest.mark.telemetry


class TestRegistryIsolation:
    """Both tests pass only if the autouse fixture isolates registry state."""

    def test_counter_starts_clean_a(self):
        assert get_registry().counters() == {}
        telemetry.increment("isolation.check", 7)
        assert get_registry().counter("isolation.check").value == 7

    def test_counter_starts_clean_b(self):
        assert get_registry().counters() == {}
        telemetry.increment("isolation.check", 7)
        assert get_registry().counter("isolation.check").value == 7

    def test_reset_clears_everything(self):
        telemetry.increment("c")
        telemetry.set_gauge("g", 1.5)
        telemetry.record_timing("t", 0.1)
        telemetry.reset()
        registry = get_registry()
        assert registry.counters() == {}
        assert registry.gauges() == {}
        assert registry.timings() == {}


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        counter = get_registry().counter("events")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_counter_get_or_create_returns_same_object(self):
        assert get_registry().counter("x") is get_registry().counter("x")

    def test_gauge_holds_latest(self):
        gauge = get_registry().gauge("lr")
        gauge.set(0.1)
        gauge.set(0.01)
        assert gauge.value == pytest.approx(0.01)

    def test_thread_safety_of_counter(self):
        counter = get_registry().counter("parallel")

        def bump():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogramQuantiles:
    def test_quantile_matches_numpy_on_random_samples(self):
        rng = np.random.default_rng(42)
        for size in (1, 2, 7, 100, 1001):
            data = sorted(rng.exponential(scale=0.01, size=size).tolist())
            for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
                assert quantile(data, q) == pytest.approx(
                    float(np.quantile(data, q)), rel=1e-12, abs=1e-15
                )

    def test_histogram_summary_matches_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.gamma(2.0, 0.005, size=500)
        histogram = TimingHistogram("t")
        for s in samples:
            histogram.record(float(s))
        summary = histogram.summary()
        assert summary["count"] == 500
        assert summary["total_s"] == pytest.approx(float(samples.sum()))
        assert summary["p50_s"] == pytest.approx(float(np.quantile(samples, 0.5)))
        assert summary["p95_s"] == pytest.approx(float(np.quantile(samples, 0.95)))
        assert summary["max_s"] == pytest.approx(float(samples.max()))

    def test_ring_buffer_windows_quantiles_but_counts_everything(self):
        histogram = TimingHistogram("t", capacity=4)
        for value in (10.0, 10.0, 10.0, 10.0, 1.0, 2.0, 3.0, 4.0):
            histogram.record(value)
        assert histogram.count == 8  # exact, not windowed
        assert histogram.total == pytest.approx(50.0)
        # The window holds only the last four samples.
        assert sorted(histogram.samples()) == [1.0, 2.0, 3.0, 4.0]
        assert histogram.summary()["max_s"] == pytest.approx(10.0)  # all-time max

    def test_empty_histogram_summary_is_zero(self):
        summary = TimingHistogram("t").summary()
        assert summary == {
            "count": 0, "total_s": 0.0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "max_s": 0.0,
        }

    def test_quantile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestEnableSwitch:
    def test_disabled_helpers_are_no_ops(self):
        with telemetry.disabled():
            telemetry.increment("c")
            telemetry.set_gauge("g", 3.0)
            telemetry.record_timing("t", 0.1)
        registry = get_registry()
        assert registry.counters() == {}
        assert registry.gauges() == {}
        assert registry.timings() == {}

    def test_nested_override_restores(self):
        assert is_enabled()
        with telemetry.disabled():
            assert not is_enabled()
            with telemetry.enabled():
                assert is_enabled()
            assert not is_enabled()
        assert is_enabled()

    def test_env_var_controls_default(self, monkeypatch):
        # set_level(None) hands control back to the environment (re-read)
        monkeypatch.setenv(ENV_VAR, "0")
        telemetry.set_level(None)
        assert not is_enabled()
        monkeypatch.setenv(ENV_VAR, "off")
        telemetry.set_level(None)
        assert not is_enabled()
        monkeypatch.setenv(ENV_VAR, "1")
        telemetry.set_level(None)
        assert is_enabled()
        monkeypatch.delenv(ENV_VAR)
        telemetry.set_level(None)
        assert is_enabled()  # default: on
