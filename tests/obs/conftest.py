"""One fitted AGNN for the monitor tests (telemetry state is reset in tests/conftest.py)."""

from __future__ import annotations

import pytest

from repro import nn
from repro.core import AGNN, AGNNConfig
from repro.train import TrainConfig

OBS_CONFIG = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=15.0)
OBS_TRAIN = TrainConfig(epochs=2, batch_size=64, patience=None)


@pytest.fixture()
def fitted_model(ics_task):
    """A small fitted AGNN; function-scoped so monitors see fresh state."""
    nn.init.seed(0)
    model = AGNN(OBS_CONFIG, rng_seed=0)
    model.fit(ics_task, OBS_TRAIN)
    return model
