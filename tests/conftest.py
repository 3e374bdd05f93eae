"""Shared fixtures: tiny datasets and tasks every test module can reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.data import (
    MovieLensConfig,
    YelpConfig,
    generate_movielens,
    generate_yelp,
    item_cold_split,
    user_cold_split,
    warm_split,
)


def _reset_telemetry() -> None:
    telemetry.reset()
    telemetry.reset_spans()
    telemetry.events.reset()


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts at telemetry level ``on`` with an empty registry,
    span store and event log; the previous level is restored afterwards.

    All of this state is process-global, so without the reset metrics or
    events recorded by one test would leak into the next one's assertions.
    """
    previous = telemetry.level()
    telemetry.set_level(telemetry.ON)
    _reset_telemetry()
    yield
    telemetry.set_level(previous)
    _reset_telemetry()


TINY_ML = MovieLensConfig(
    name="tiny-ml",
    num_users=40,
    num_items=60,
    num_ratings=700,
    num_stars=12,
    num_directors=10,
    num_writers=10,
    seed=3,
)

TINY_YELP = YelpConfig(
    name="tiny-yelp",
    num_users=45,
    num_items=40,
    num_ratings=500,
    num_cities=12,
    num_states=4,
    mean_friends=5.0,
    seed=5,
)


@pytest.fixture(scope="session")
def tiny_movielens():
    return generate_movielens(TINY_ML)


@pytest.fixture(scope="session")
def tiny_yelp():
    return generate_yelp(TINY_YELP)


@pytest.fixture(scope="session")
def warm_task(tiny_movielens):
    return warm_split(tiny_movielens, 0.2, seed=0)


@pytest.fixture(scope="session")
def ics_task(tiny_movielens):
    return item_cold_split(tiny_movielens, 0.2, seed=0)


@pytest.fixture(scope="session")
def ucs_task(tiny_movielens):
    return user_cold_split(tiny_movielens, 0.2, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
