"""Serving fixtures: one fitted SMOKE-scale AGNN, exported once per session."""

from __future__ import annotations

import pytest

from repro import nn
from repro.core import AGNN, AGNNConfig
from repro.serving import InferenceEngine, export_bundle, load_bundle
from repro.train import TrainConfig

SERVING_CONFIG = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=15.0)
SERVING_TRAIN = TrainConfig(epochs=2, batch_size=64, patience=None)


@pytest.fixture(scope="session")
def fitted_model(ics_task):
    nn.init.seed(0)
    model = AGNN(SERVING_CONFIG, rng_seed=0)
    model.fit(ics_task, SERVING_TRAIN)
    return model


@pytest.fixture(scope="session")
def bundle_dir(fitted_model, ics_task, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "bundle"
    return export_bundle(fitted_model, ics_task, path, note="test-bundle")


@pytest.fixture(scope="session")
def bundle(bundle_dir):
    return load_bundle(bundle_dir)


@pytest.fixture()
def engine(bundle):
    """A fresh engine per test — onboarding mutates engine state."""
    return InferenceEngine(bundle)
