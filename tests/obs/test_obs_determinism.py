"""Monitors must not perturb numerics: telemetry off/on/full is bit-identical.

The monitors recompute gate values and eVAE statistics under ``no_grad`` from
fixed node samples, draw from no RNG and never populate the model's inference
caches — so a monitored fit is bitwise-identical to an unmonitored one.  This
suite is what keeps that contract honest (the golden baselines stay frozen).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, telemetry
from repro.core import AGNN, AGNNConfig
from repro.telemetry import events
from repro.train import TrainConfig, monitors

pytestmark = pytest.mark.obs

FAST = TrainConfig(epochs=2, batch_size=64, learning_rate=0.01, patience=None, seed=0)
SMALL = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=10.0)


def _fit_and_predict(task):
    nn.init.seed(0)
    model = AGNN(SMALL, rng_seed=0)
    model.fit(task, FAST)
    return model.predict(task.test_users, task.test_items)


class TestMonitorDeterminism:
    def test_monitored_fit_is_bitwise_identical(self, ics_task, monkeypatch):
        # Observe every 2 batches so every monitor runs many times mid-fit.
        monkeypatch.setattr(monitors, "DEFAULT_EVERY_N_STEPS", 2)
        predictions = {}
        for level in (telemetry.OFF, telemetry.ON):
            with telemetry.at_level(level):
                predictions[level] = _fit_and_predict(ics_task)
        with telemetry.at_level(telemetry.FULL):
            predictions[telemetry.FULL] = _fit_and_predict(ics_task)
            # the run actually happened: manifest + monitor events recorded
            log = events.get_event_log()
            assert len(log.events(kind="run_start")) == 1
            assert len(log.events(kind="monitor")) > 0
            assert len(log.events(kind="fit_end")) == 1
        np.testing.assert_array_equal(predictions[telemetry.OFF], predictions[telemetry.FULL])
        np.testing.assert_array_equal(predictions[telemetry.ON], predictions[telemetry.FULL])

    def test_disabled_fit_emits_nothing(self, ics_task):
        for level in (telemetry.OFF, telemetry.ON):
            with telemetry.at_level(level):
                _fit_and_predict(ics_task)
        assert events.get_event_log().events() == []

    def test_fit_end_history_matches_model(self, ics_task):
        nn.init.seed(0)
        model = AGNN(SMALL, rng_seed=0)
        with telemetry.at_level(telemetry.FULL):
            model.fit(ics_task, FAST)
            fit_end = events.get_event_log().events(kind="fit_end")[-1]
        assert fit_end["history"] == model.history.to_dict()
        assert fit_end["epochs"] == model.history.num_epochs
