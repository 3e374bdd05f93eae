"""Warm-started incremental training: fold a stream into an exported bundle.

The refresh path (:meth:`AGNN.fit_incremental`) rebuilds the architecture at
the extended node counts and reuses everything the parent generation already
paid for:

* **weights** — every trained parameter is copied row-for-row; grown tables
  (preference embeddings, rating biases) keep their trained prefix and extend;
* **new preference rows** — initialised by the *parent's* eVAE from the new
  nodes' attributes (Eq. 6–8), the pre-training insight: a generated warm
  start beats random init for attribute-only nodes;
* **graphs** — new nodes are spliced into the parent bundle's candidate pools
  with attribute-cosine proximity (the strict-cold-start fallback, exactly the
  live-onboarding rule) instead of rebuilding the n×n proximity matrices;
* **supervision** — the bundle's training interactions are replayed alongside
  the new stream, with a seeded holdout of the *new* interactions reserved as
  the refresh eval split.

Everything is seeded through the refresh :class:`TrainConfig`, so two
refreshes of the same bundle with the same stream are bitwise identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..data.dataset import RatingDataset
from ..data.splits import RecommendationTask
from ..graphs import DynamicNeighborGraph, FixedNeighborGraph, NeighborGraph
from ..graphs.candidates import CandidateIndex, default_budgets
from ..graphs.construction import _extend_pools_from_rows
from ..nn.functional import cosine_similarity_matrix
from ..telemetry import events, increment, span
from ..train.recommender import TrainConfig

__all__ = [
    "DEFAULT_REFRESH_CONFIG",
    "build_refresh_task",
    "splice_graphs",
    "run_incremental_fit",
]

#: Short deterministic refresh: fixed epoch count (no validation split, no
#: early stop — nothing RNG-dependent decides when to stop), a gentler
#: learning rate than a cold fit (the weights start near an optimum).
DEFAULT_REFRESH_CONFIG = TrainConfig(
    epochs=2,
    batch_size=128,
    learning_rate=0.003,
    validation_fraction=0.0,
    patience=None,
    seed=0,
)


def _as_stream(new_interactions) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        users, items, ratings = new_interactions
    except (TypeError, ValueError) as exc:
        raise ValueError(
            "new_interactions must be a (users, items, ratings) triple of aligned arrays"
        ) from exc
    users = np.asarray(users, dtype=np.int64).reshape(-1)
    items = np.asarray(items, dtype=np.int64).reshape(-1)
    ratings = np.asarray(ratings, dtype=np.float64).reshape(-1)
    if not (len(users) == len(items) == len(ratings)):
        raise ValueError("new_interactions arrays must have equal length")
    return users, items, ratings


def _extend_attributes(base: np.ndarray, new_rows, side: str) -> np.ndarray:
    if new_rows is None:
        return base
    rows = np.atleast_2d(np.asarray(new_rows, dtype=np.float64))
    if rows.size == 0:
        return base
    if rows.shape[1] != base.shape[1]:
        raise ValueError(
            f"new {side} attributes have {rows.shape[1]} columns, bundle has {base.shape[1]}"
        )
    return np.vstack([base, rows])


def build_refresh_task(
    bundle,
    new_interactions,
    new_users=None,
    new_items=None,
    holdout_fraction: float = 0.2,
    seed: int = 0,
) -> RecommendationTask:
    """Combine a bundle's replayed training set with a new stream into a task.

    The training split is every replayed interaction plus the stream minus a
    seeded ``holdout_fraction`` of the *stream* — the held-out new feedback is
    what the refresh is evaluated (and promotion-gated) on.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in [0, 1)")
    users_new, items_new, ratings_new = _as_stream(new_interactions)
    if len(bundle.train_users) and not len(bundle.train_ratings):
        raise ValueError(
            f"bundle {bundle.path} carries no training ratings to replay (it was "
            "exported at manifest schema v1); re-export the parent model with "
            "this build's `repro export-bundle` before refreshing"
        )

    user_attrs = _extend_attributes(bundle.user_attributes, new_users, "user")
    item_attrs = _extend_attributes(bundle.item_attributes, new_items, "item")

    dataset = RatingDataset(
        name=f"{bundle.manifest['dataset']['name']}+stream",
        user_attributes=user_attrs,
        item_attributes=item_attrs,
        user_ids=np.concatenate([bundle.train_users, users_new]),
        item_ids=np.concatenate([bundle.train_items, items_new]),
        ratings=np.concatenate([bundle.train_ratings, ratings_new]),
        rating_scale=bundle.rating_scale,
        user_schema=bundle.user_schema,
        item_schema=bundle.item_schema,
    )

    replay_n = len(bundle.train_users)
    rng = np.random.default_rng(seed)
    n_hold = int(round(len(users_new) * holdout_fraction))
    held = np.sort(rng.permutation(len(users_new))[:n_hold]) if n_hold else np.empty(0, dtype=np.int64)
    test_idx = replay_n + held
    train_idx = np.setdiff1d(np.arange(dataset.num_ratings, dtype=np.int64), test_idx)
    return RecommendationTask(dataset=dataset, scenario="warm", train_idx=train_idx, test_idx=test_idx)


def _splice_side(graph: NeighborGraph, attributes: np.ndarray, config) -> NeighborGraph:
    """Extend one side's candidate graph with rows for the appended nodes.

    New nodes have attributes but no history, so their proximity is attribute
    cosine only — the same strict-cold-start fallback live onboarding uses
    (:func:`repro.serving.onboarding.splice_neighbours`), vectorised over the
    whole block of arrivals.  Existing nodes' pools are untouched.  With
    ``config.graph_candidate_strategy == "inverted"`` each arrival scores only
    the candidates an inverted attribute index proposes, so the splice never
    touches all ``n`` rows per node.
    """
    n = attributes.shape[0]
    old_n = graph.num_nodes
    if n == old_n:
        return graph
    if n < old_n:
        raise ValueError(f"extended attribute matrix has {n} rows, graph has {old_n}")
    new_rows = attributes[old_n:]

    if isinstance(graph, DynamicNeighborGraph):
        pool_size = max(int(round(n * config.pool_percent / 100.0)), config.num_neighbors)
        pool_size = int(np.clip(pool_size, 1, n - 1))
        pools = list(graph.pools)
        weights = list(graph.weights)
        if getattr(config, "graph_candidate_strategy", "exact") == "inverted":
            scan_budget, max_candidates = default_budgets(pool_size)
            index = CandidateIndex(
                attributes != 0, scan_budget=scan_budget, max_candidates=max_candidates
            )
            for offset, row in enumerate(new_rows):
                node = old_n + offset
                cands = index.candidates_for_row(row, exclude=node)
                if cands.size == 0:
                    # Information-free arrival: the deterministic low-id
                    # fallback pool build_candidate_graph uses.
                    fallback = np.arange(pool_size + 1, dtype=np.int64)
                    fallback = fallback[fallback != node][:pool_size]
                    pools.append(fallback)
                    weights.append(np.full(fallback.size, 1e-6))
                    continue
                sims = cosine_similarity_matrix(row[None, :], attributes[cands])[0]
                order = np.lexsort((cands, -sims))[: min(pool_size, cands.size)]
                top = sims[order]
                pools.append(cands[order].astype(np.int64))
                weights.append(top - top.min() + 1e-6)
            return DynamicNeighborGraph(pools=pools, weights=weights)
        similarity = cosine_similarity_matrix(new_rows, attributes)
        # A node must not be its own candidate; peers among the arrivals may be.
        similarity[np.arange(n - old_n), np.arange(old_n, n)] = -np.inf
        _extend_pools_from_rows(similarity, pool_size, pools, weights)
        return DynamicNeighborGraph(pools=pools, weights=weights)
    if isinstance(graph, FixedNeighborGraph):
        similarity = cosine_similarity_matrix(new_rows, attributes)
        similarity[np.arange(n - old_n), np.arange(old_n, n)] = -np.inf
        order = np.argsort(-similarity, axis=1)[:, : graph.matrix.shape[1]]
        return FixedNeighborGraph(matrix=np.vstack([graph.matrix, order]))
    raise TypeError(f"cannot splice graph type {type(graph).__name__}")


def splice_graphs(
    bundle, user_attributes: np.ndarray, item_attributes: np.ndarray, config
) -> Dict[str, NeighborGraph]:
    """Incrementally extended candidate graphs for both sides."""
    with span("live.splice_graphs"):
        spliced = {
            "user": _splice_side(bundle.graphs["user"], user_attributes, config),
            "item": _splice_side(bundle.graphs["item"], item_attributes, config),
        }
    increment(
        "live.spliced_nodes",
        (user_attributes.shape[0] - bundle.graphs["user"].num_nodes)
        + (item_attributes.shape[0] - bundle.graphs["item"].num_nodes),
    )
    return spliced


def _warm_start_weights(model, parent) -> None:
    """Copy every parent parameter into the rebuilt (possibly larger) model.

    ``load_model_into`` rejects any shape difference, so the grown tables
    (per-node preference embeddings and rating biases) are copied row-wise:
    the trained prefix carries over, appended rows keep their init until the
    eVAE seeding below overwrites the preference rows.
    """
    own = dict(model.named_parameters())
    for name, old in parent.named_parameters():
        new = own.pop(name, None)
        if new is None:
            raise ValueError(f"parent parameter {name!r} has no counterpart in the rebuilt model")
        if old.data.shape == new.data.shape:
            new.data[...] = old.data
        elif old.data.shape[1:] == new.data.shape[1:] and old.data.shape[0] <= new.data.shape[0]:
            new.data[: old.data.shape[0]] = old.data
        else:
            raise ValueError(
                f"parameter {name!r} cannot warm-start: parent {old.data.shape} "
                f"vs rebuilt {new.data.shape}"
            )
    if own:
        raise ValueError(f"rebuilt model has parameters the parent lacks: {sorted(own)}")


def run_incremental_fit(
    model,
    bundle,
    new_interactions,
    new_users=None,
    new_items=None,
    config: Optional[TrainConfig] = None,
    holdout_fraction: float = 0.2,
):
    """The :meth:`AGNN.fit_incremental` implementation (see that docstring)."""
    from ..core.config import AGNNConfig

    config = config if config is not None else DEFAULT_REFRESH_CONFIG
    with span("live.fit_incremental"):
        task = build_refresh_task(
            bundle,
            new_interactions,
            new_users=new_users,
            new_items=new_items,
            holdout_fraction=holdout_fraction,
            seed=config.seed,
        )
        dataset = task.dataset

        # The refresh trains the *parent's* architecture: its config wins over
        # whatever the fresh model object was constructed with.
        model.config = AGNNConfig(**bundle.manifest["config"])
        # Deterministic seed path: the model RNG (corruption masks, cold
        # modules) restarts from the refresh seed before anything draws on it.
        model._rng = np.random.default_rng(config.seed)
        model.build_architecture(
            dataset.num_users,
            dataset.num_items,
            dataset.user_attributes.shape[1],
            dataset.item_attributes.shape[1],
            # Keep the parent's global mean: every copied bias row was trained
            # as an offset against it.
            float(bundle.manifest["global_mean"]),
        )
        _warm_start_weights(model, bundle.model)
        for side, old_n in (("user", bundle.user_attributes.shape[0]),
                            ("item", bundle.item_attributes.shape[0])):
            new_n = dataset.user_attributes.shape[0] if side == "user" else dataset.item_attributes.shape[0]
            if new_n > old_n:
                rows = (dataset.user_attributes if side == "user" else dataset.item_attributes)[old_n:]
                generated = bundle.model.generate_cold_preference(side, rows)
                model._encoder(side).preference.weight.data[old_n:] = generated

        model._pending_graphs = splice_graphs(
            bundle, dataset.user_attributes, dataset.item_attributes, model.config
        )
        history = model.fit(task, config)
    events.emit(
        "live.refresh_fit",
        parent_fingerprint=bundle.fingerprint,
        parent_version=bundle.version,
        users=dataset.num_users,
        items=dataset.num_items,
        new_interactions=int(len(task.dataset.ratings) - len(bundle.train_users)),
        epochs=history.num_epochs,
    )
    return history
