"""One turn of the continuous-learning crank: refresh → gate → publish → swap.

:func:`run_refresh` stitches the live subsystem together: load the store's
latest generation, warm-start a refresh on the new stream
(:meth:`AGNN.fit_incremental`), run the promotion gates, and — only on
acceptance — publish the child generation and hot-swap it under the serving
target.  A rejected refresh leaves both the store and the serving tier on the
parent generation.

:func:`simulate_stream` manufactures a realistic stream from a static dataset
for demos/benchmarks: the tail user/item ids play the role of "arrived after
the base model shipped", together with every interaction touching them plus a
seeded slice of warm interactions (returning users rating catalogue items).
Reserving the *tail* of the id space keeps ids prefix-consistent, which is
what incremental table growth requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data.dataset import RatingDataset
from ..telemetry import events, increment, span
from .gates import GateConfig, PromotionDecision, evaluate_promotion
from .store import BundleStore
from .swap import SwapReport, swap_bundle

__all__ = ["StreamBatch", "RefreshResult", "simulate_stream", "run_refresh"]


@dataclass
class StreamBatch:
    """New feedback since the last generation: interactions + node arrivals."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    #: attribute rows for users whose ids lie beyond the base model's tables
    new_user_attributes: np.ndarray
    #: attribute rows for items beyond the base tables
    new_item_attributes: np.ndarray

    @property
    def interactions(self):
        """The ``(users, items, ratings)`` triple ``fit_incremental`` takes."""
        return self.users, self.items, self.ratings

    def describe(self) -> str:
        return (
            f"{len(self.ratings)} interactions, "
            f"{self.new_user_attributes.shape[0]} new users, "
            f"{self.new_item_attributes.shape[0]} new items"
        )


@dataclass
class RefreshResult:
    """Everything one refresh attempt produced (accepted or not)."""

    accepted: bool
    parent_version: int
    decision: PromotionDecision
    #: the published generation (None when the refresh was rejected)
    version: Optional[int] = None
    epochs: int = 0
    swapped: bool = False
    swap_report: Optional[SwapReport] = None
    reasons: list = field(default_factory=list)


def simulate_stream(
    dataset: RatingDataset,
    interaction_fraction: float = 0.1,
    new_user_fraction: float = 0.05,
    new_item_fraction: float = 0.05,
    seed: int = 0,
):
    """Split a dataset into (base dataset, stream) for refresh demos/benches.

    The last ``new_user_fraction`` of user ids and ``new_item_fraction`` of
    item ids are treated as post-launch arrivals: their attribute rows and all
    their interactions go to the stream, plus a seeded
    ``interaction_fraction`` of the remaining warm interactions.  Returns
    ``(base_dataset, stream_batch)``.
    """
    for name, value in (
        ("interaction_fraction", interaction_fraction),
        ("new_user_fraction", new_user_fraction),
        ("new_item_fraction", new_item_fraction),
    ):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must be in [0, 1)")
    n_new_users = int(round(dataset.num_users * new_user_fraction))
    n_new_items = int(round(dataset.num_items * new_item_fraction))
    base_users = dataset.num_users - n_new_users
    base_items = dataset.num_items - n_new_items
    if base_users < 1 or base_items < 1:
        raise ValueError("stream fractions leave no base users/items")

    touches_new = (dataset.user_ids >= base_users) | (dataset.item_ids >= base_items)
    warm_rows = np.flatnonzero(~touches_new)
    rng = np.random.default_rng(seed)
    n_extra = int(round(len(warm_rows) * interaction_fraction))
    extra = rng.permutation(warm_rows)[:n_extra]
    stream_idx = np.sort(np.concatenate([np.flatnonzero(touches_new), extra]))
    base_idx = np.setdiff1d(np.arange(dataset.num_ratings, dtype=np.int64), stream_idx)
    if len(base_idx) == 0:
        raise ValueError("stream fractions leave no base interactions")

    base = RatingDataset(
        name=f"{dataset.name}@base",
        user_attributes=dataset.user_attributes[:base_users],
        item_attributes=dataset.item_attributes[:base_items],
        user_ids=dataset.user_ids[base_idx],
        item_ids=dataset.item_ids[base_idx],
        ratings=dataset.ratings[base_idx],
        rating_scale=dataset.rating_scale,
        user_schema=dataset.user_schema,
        item_schema=dataset.item_schema,
    )
    stream = StreamBatch(
        users=dataset.user_ids[stream_idx],
        items=dataset.item_ids[stream_idx],
        ratings=dataset.ratings[stream_idx],
        new_user_attributes=dataset.user_attributes[base_users:],
        new_item_attributes=dataset.item_attributes[base_items:],
    )
    return base, stream


def run_refresh(
    store: BundleStore,
    new_interactions,
    new_users=None,
    new_items=None,
    config=None,
    gate_config: Optional[GateConfig] = None,
    target=None,
    model=None,
    note: str = "incremental refresh",
) -> RefreshResult:
    """Refresh the store's latest generation with new data; promote if healthy.

    ``target`` (optional) is a serving object with ``swap_engine`` — on
    acceptance the published generation is hot-swapped onto it with zero
    downtime.  ``model`` (optional) is a fresh model instance to train into;
    defaults to a new :class:`AGNN` (the architecture is overwritten from the
    bundle manifest either way).
    """
    from ..core.model import AGNN

    bundle = store.load()
    if model is None:
        model = AGNN()
    with span("live.refresh"):
        history = model.fit_incremental(
            bundle, new_interactions, new_users=new_users, new_items=new_items, config=config
        )
        decision = evaluate_promotion(model, model.task, bundle, gate_config)
        result = RefreshResult(
            accepted=decision.accepted,
            parent_version=bundle.version,
            decision=decision,
            epochs=history.num_epochs,
            reasons=list(decision.reasons),
        )
        if not decision.accepted:
            increment("live.refresh.rejected")
            increment("serve.swap.rejected")
            events.emit(
                "live.refresh_rejected",
                parent_version=bundle.version,
                reasons=decision.reasons,
            )
            return result

        metrics = {}
        if decision.rmse is not None:
            metrics["eval_rmse"] = decision.rmse
        if decision.baseline_rmse is not None:
            metrics["parent_warm_rmse"] = decision.baseline_rmse
        result.version = store.publish(
            model,
            model.task,
            note=note,
            parent_version=bundle.version,
            metrics=metrics,
        )
        increment("live.refresh.accepted")
        if target is not None:
            result.swap_report = swap_bundle(target, store.load(result.version))
            result.swapped = True
    return result
