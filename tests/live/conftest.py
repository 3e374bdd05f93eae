"""Continuous-learning fixtures: one base generation plus a simulated stream.

The expensive pieces (base fit, incremental refresh) are session-scoped; the
store fixtures come in two flavours — a read-only ``seed_store`` / ``two_gen_store``
shared across tests and a per-test ``fresh_store`` for anything that publishes.
"""

from __future__ import annotations

import pytest

from repro import nn, telemetry
from repro.core import AGNN, AGNNConfig
from repro.data import warm_split
from repro.live import BundleStore, simulate_stream
from repro.train import TrainConfig

LIVE_CONFIG = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=15.0)
LIVE_TRAIN = TrainConfig(
    epochs=2, batch_size=64, validation_fraction=0.0, patience=None, seed=0
)


@pytest.fixture(autouse=True)
def full_telemetry():
    """The live loop emits audit events, which are recorded at level full."""
    with telemetry.at_level(telemetry.FULL):
        yield


@pytest.fixture(scope="session")
def live_split(tiny_movielens):
    """(base_dataset, stream): the pre-launch slice and what arrived after."""
    return simulate_stream(tiny_movielens, seed=0)


@pytest.fixture(scope="session")
def base_task(live_split):
    base, _ = live_split
    return warm_split(base, 0.2, seed=0)


@pytest.fixture(scope="session")
def base_model(base_task):
    nn.init.seed(0)
    model = AGNN(LIVE_CONFIG, rng_seed=0)
    model.fit(base_task, LIVE_TRAIN)
    return model


@pytest.fixture(scope="session")
def seed_store(base_model, base_task, tmp_path_factory):
    """Read-only single-generation store — do NOT publish into it."""
    store = BundleStore(tmp_path_factory.mktemp("live-seed") / "store")
    store.publish(base_model, base_task, note="gen-1")
    return store


@pytest.fixture(scope="session")
def base_bundle(seed_store):
    return seed_store.load()


@pytest.fixture(scope="session")
def refreshed_model(base_bundle, live_split):
    _, stream = live_split
    model = AGNN()
    model.fit_incremental(
        base_bundle,
        stream.interactions,
        new_users=stream.new_user_attributes,
        new_items=stream.new_item_attributes,
    )
    return model


@pytest.fixture(scope="session")
def two_gen_store(base_model, base_task, refreshed_model, tmp_path_factory):
    """Read-only two-generation store: gen-2 refreshed from gen-1."""
    store = BundleStore(tmp_path_factory.mktemp("live-two") / "store")
    store.publish(base_model, base_task, note="gen-1")
    store.publish(refreshed_model, refreshed_model.task, note="gen-2", parent_version=1)
    return store


@pytest.fixture()
def fresh_store(base_model, base_task, tmp_path):
    """A per-test store holding only gen-1 — safe to publish into."""
    store = BundleStore(tmp_path / "store")
    store.publish(base_model, base_task, note="gen-1")
    return store
