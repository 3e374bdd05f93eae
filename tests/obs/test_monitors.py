"""Training health monitors against a real fitted AGNN."""

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import events
from repro.telemetry import metrics as telemetry_metrics
from repro.train.monitors import (
    GateSaturationMonitor,
    GradNormMonitor,
    KLCollapseMonitor,
    Monitor,
    MonitorSuite,
    NaNWatchdog,
    TrainingHealthError,
    default_monitors,
)

pytestmark = pytest.mark.obs


@pytest.fixture()
def model_with_grads(fitted_model, ics_task):
    """Run one backward pass so every parameter carries a gradient."""
    fitted_model.train()
    users = ics_task.train_users[:32]
    items = ics_task.train_items[:32]
    ratings = ics_task.train_ratings[:32]
    loss, _ = fitted_model.batch_loss(users, items, ratings)
    loss.backward()
    return fitted_model


class TestGradNormMonitor:
    def test_groups_by_first_name_component(self, model_with_grads):
        readings = GradNormMonitor().observe(model_with_grads, epoch=0, step=0)
        assert readings["total"] > 0.0
        groups = {k for k in readings if k.startswith("group.")}
        assert {"group.user_encoder", "group.item_encoder", "group.head"} <= groups
        # total is the L2 norm over all groups combined
        total_sq = sum(readings[k] ** 2 for k in groups)
        assert readings["total"] == pytest.approx(np.sqrt(total_sq))

    def test_empty_without_gradients(self, fitted_model):
        fitted_model.zero_grad()
        assert GradNormMonitor().observe(fitted_model, 0, 0) == {}


class TestGateSaturationMonitor:
    def test_reports_both_gates_per_side(self, fitted_model):
        readings = GateSaturationMonitor().observe(fitted_model, 0, 0)
        for side in ("user", "item"):
            for gate in ("aggregate_gate", "filter_gate"):
                frac = readings[f"{side}.{gate}.saturated_frac"]
                assert 0.0 <= frac <= 1.0
                assert 0.0 <= readings[f"{side}.{gate}.mean"] <= 1.0

    def test_does_not_touch_inference_cache(self, fitted_model):
        fitted_model._invalidate_inference_cache()
        GateSaturationMonitor().observe(fitted_model, 0, 0)
        assert fitted_model._inference_pref == {"user": None, "item": None}
        assert fitted_model._inference_refined == {"user": None, "item": None}

    def test_unprepared_model_is_skipped(self):
        from repro.core import AGNN

        assert GateSaturationMonitor().observe(AGNN(), 0, 0) == {}


class TestKLCollapseMonitor:
    def test_reports_kl_and_approximation(self, fitted_model):
        monitor = KLCollapseMonitor()
        first = monitor.observe(fitted_model, 0, 0)
        for side in ("user", "item"):
            assert first[f"{side}.kl"] >= 0.0
            assert first[f"{side}.approx"] >= 0.0
            assert first[f"{side}.kl_collapsed"] in (0.0, 1.0)
            assert first[f"{side}.approx_drift"] == 0.0  # no previous observation
            assert first[f"{side}.sigma_mean"] > 0.0
        # second observation on an unchanged model: zero drift
        second = monitor.observe(fitted_model, 0, 1)
        assert second["user.approx_drift"] == pytest.approx(0.0)

    def test_deterministic_and_cache_neutral(self, fitted_model):
        a = KLCollapseMonitor().observe(fitted_model, 0, 0)
        b = KLCollapseMonitor().observe(fitted_model, 0, 0)
        assert a == b
        assert fitted_model._inference_pref == {"user": None, "item": None}


class TestNaNWatchdog:
    def test_healthy_model_passes(self, fitted_model):
        readings = NaNWatchdog().observe(fitted_model, 0, 0)
        assert readings["parameters_checked"] > 0

    def test_raises_naming_tensor_and_epoch(self, fitted_model):
        params = dict(fitted_model.named_parameters())
        name, param = next(iter(params.items()))
        param.data.flat[0] = np.nan
        with pytest.raises(TrainingHealthError) as excinfo:
            NaNWatchdog().observe(fitted_model, epoch=3, step=17)
        error = excinfo.value
        assert error.tensor_name == name
        assert error.epoch == 3 and error.step == 17
        assert name in str(error) and "epoch 3" in str(error)

    def test_raises_on_nan_gradient(self, model_with_grads):
        from repro.autograd import SparseRowGrad

        for name, param in model_with_grads.named_parameters():
            if param.grad is not None and not isinstance(param.grad, SparseRowGrad):
                np.asarray(param.grad).flat[0] = np.inf
                break
        with pytest.raises(TrainingHealthError, match="gradient"):
            NaNWatchdog().observe(model_with_grads, 0, 0)


class TestMonitorSuite:
    def test_protocol_conformance(self):
        for monitor in default_monitors():
            assert isinstance(monitor, Monitor)

    def test_cadence(self, fitted_model):
        suite = MonitorSuite(monitors=[NaNWatchdog()], every_n_steps=3)
        for _ in range(7):
            suite.after_batch(fitted_model, epoch=0)
        assert suite.observations == 2  # steps 3 and 6

    def test_emits_events_and_gauges(self, fitted_model):
        log = events.EventLog()
        events.set_event_log(log)
        suite = MonitorSuite(monitors=[KLCollapseMonitor()], every_n_steps=1)
        with telemetry.at_level(telemetry.FULL):
            readings = suite.observe(fitted_model, epoch=1)
        assert "kl_collapse" in readings
        monitor_events = log.events(kind="monitor")
        assert len(monitor_events) == 1
        assert monitor_events[0]["monitor"] == "kl_collapse"
        assert monitor_events[0]["epoch"] == 1
        gauges = telemetry_metrics.get_registry().gauges()
        assert "obs.kl_collapse.user.kl" in gauges
        assert suite.last["kl_collapse"] == readings["kl_collapse"]

    def test_health_error_event_then_raise(self, fitted_model):
        log = events.EventLog()
        events.set_event_log(log)
        name, param = next(iter(dict(fitted_model.named_parameters()).items()))
        param.data.flat[0] = np.nan
        suite = MonitorSuite(monitors=[NaNWatchdog()], every_n_steps=1)
        with telemetry.at_level(telemetry.FULL), pytest.raises(TrainingHealthError):
            suite.observe(fitted_model, epoch=0)
        errors = log.events(kind="health_error")
        assert len(errors) == 1
        assert errors[0]["tensor"] == name
