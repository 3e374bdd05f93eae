"""Instrumentation must not perturb numerics: telemetry off/on/full is bit-identical.

Spans and counters read the wall clock, never the RNG; the profiler wraps ops
without touching their maths.  Two fits from the same seed must therefore
produce identical predictions whatever the telemetry state — this is the
regression net that keeps future instrumentation honest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, telemetry
from repro.core import AGNN, AGNNConfig
from repro.telemetry import AutogradProfiler
from repro.train import TrainConfig

pytestmark = pytest.mark.telemetry

FAST = TrainConfig(epochs=2, batch_size=64, learning_rate=0.01, patience=None, seed=0)
SMALL = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=10.0)


def _fit_and_predict(task):
    nn.init.seed(0)
    model = AGNN(SMALL, rng_seed=0)
    model.fit(task, FAST)
    return model.predict(task.test_users, task.test_items)


class TestSeedDeterminism:
    def test_same_seed_same_predictions_with_telemetry_on(self, ics_task):
        first = _fit_and_predict(ics_task)
        second = _fit_and_predict(ics_task)
        np.testing.assert_array_equal(first, second)

    def test_telemetry_off_changes_no_predictions(self, ics_task):
        predictions = {}
        for level in (telemetry.OFF, telemetry.ON, telemetry.FULL):
            with telemetry.at_level(level):
                predictions[level] = _fit_and_predict(ics_task)
        np.testing.assert_array_equal(predictions[telemetry.ON], predictions[telemetry.OFF])
        np.testing.assert_array_equal(predictions[telemetry.ON], predictions[telemetry.FULL])

    def test_profiler_changes_no_predictions(self, ics_task):
        baseline = _fit_and_predict(ics_task)
        with AutogradProfiler():
            profiled = _fit_and_predict(ics_task)
        np.testing.assert_array_equal(baseline, profiled)

    def test_disabled_run_leaves_registry_empty(self, ics_task):
        with telemetry.disabled():
            _fit_and_predict(ics_task)
            assert telemetry.get_registry().counters() == {}
            assert telemetry.span_summaries() == {}
