"""The benchmark's catalogue: one seeded MovieLens-like dataset, fitted and
exported as a serving bundle.

The catalogue seed is fixed so every run serves the same model and
``test_rmse`` is comparable; the workload seed only drives the requests and
the attributes of newly arriving users and items (see :func:`arrivals`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import numpy as np

#: users x items x ratings of the served catalogue, and the smoke variant
FULL_SCALE = (1500, 10_000, 40_000)
SMOKE_SCALE = (120, 400, 3000)

CATALOGUE_SEED = 7
SPLIT_SEED = 0
EPOCHS = 1
BATCH_SIZE = 512


@dataclass
class Catalogue:
    bundle_dir: Path
    test_rmse: float
    timings: Dict[str, float]
    num_users: int
    num_items: int


def build(bundle_dir: Path, smoke: bool) -> Catalogue:
    """Generate, fit (fixed epochs, no early stopping) and export with
    mapped materialisation.  Returns per-stage wall-clock seconds."""
    from repro.core import AGNN, AGNNConfig
    from repro.data import make_split
    from repro.data.movielens import MovieLensConfig, generate_movielens
    from repro.nn import init as nn_init
    from repro.serving import export_bundle
    from repro.train.recommender import TrainConfig

    users, items, ratings = SMOKE_SCALE if smoke else FULL_SCALE
    timings: Dict[str, float] = {}

    started = time.perf_counter()
    dataset = generate_movielens(MovieLensConfig(
        name="perfbench", num_users=users, num_items=items,
        num_ratings=ratings, seed=CATALOGUE_SEED,
    ))
    task = make_split(dataset, "item_cold", 0.2, seed=SPLIT_SEED)
    timings["data"] = time.perf_counter() - started

    started = time.perf_counter()
    nn_init.seed(SPLIT_SEED)
    # The paper's D=40, 10 neighbours, p=5% (the AGNNConfig defaults).
    model = AGNN(AGNNConfig(embedding_dim=40, num_neighbors=10, pool_percent=5.0),
                 rng_seed=SPLIT_SEED)
    model.fit(task, TrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, patience=None))
    timings["fit"] = time.perf_counter() - started

    # Quality probe, outside setup_s: a faster fit that changes the model shows here.
    test_rmse = float(model.evaluate().rmse)

    started = time.perf_counter()
    export_bundle(model, task, bundle_dir, note="perfbench", mapped=True)
    timings["export"] = time.perf_counter() - started
    return Catalogue(bundle_dir, test_rmse, timings, users, items)


def arrivals(seed: int, side: str, count: int) -> np.ndarray:
    """Attribute rows of ``count`` new nodes from a differently seeded
    generator with the catalogue's schema (multi-hot, one row per node)."""
    from repro.data.movielens import MovieLensConfig, generate_movielens

    users = count if side == "user" else 8
    items = count if side == "item" else 8
    data = generate_movielens(MovieLensConfig(
        name="arrivals", num_users=max(users, 8), num_items=max(items, 8),
        num_ratings=64, seed=10_000 + seed * 2 + (side == "item"),
    ))
    rows = data.user_attributes if side == "user" else data.item_attributes
    return rows[:count]
