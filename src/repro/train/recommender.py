"""The Recommender interface and the shared mini-batch fit loop.

Every model in this repository — AGNN, its ablation variants, and the twelve
baselines — subclasses :class:`Recommender`.  A model implements

* ``prepare(task)``     : build graphs/caches from *training* data only;
* ``batch_loss(...)``   : differentiable loss for one mini-batch; and
* ``predict_scores(...)``: raw rating predictions for (user, item) pairs,

and inherits ``fit`` / ``predict`` / ``evaluate``.  Predictions are clipped to
the dataset's rating scale, as is standard for rating prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..data.splits import RecommendationTask
from ..nn import Module
from ..optim import Adam, clip_grad_norm
from ..telemetry import increment, span
from .history import TrainHistory
from .metrics import EvalResult
from .monitors import maybe_fit_observer

__all__ = ["TrainConfig", "Recommender"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings; the defaults follow the paper (Sec. 4.1.4).

    ``validation_fraction`` of the training interactions is held out to drive
    early stopping: training stops once validation RMSE has not improved for
    ``patience`` consecutive epochs, and the best-validation weights are
    restored.  Set ``patience=None`` to train for exactly ``epochs`` epochs.
    Early stopping makes the model comparisons robust to each architecture's
    convergence speed (some baselines overfit badly past their optimum).
    """

    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 0.0005
    weight_decay: float = 0.0
    grad_clip: Optional[float] = 5.0
    validation_fraction: float = 0.1
    patience: Optional[int] = 3
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be at least 1")


class Recommender(Module):
    """Base class: shared training loop + prediction/evaluation protocol."""

    name: str = "recommender"

    def __init__(self) -> None:
        super().__init__()
        self.task: Optional[RecommendationTask] = None
        self.history = TrainHistory()
        self._rating_scale: Tuple[float, float] = (1.0, 5.0)

    # ------------------------------------------------------------------ hooks
    def prepare(self, task: RecommendationTask) -> None:
        """Build per-task state (graphs, encodings). Training data only."""

    def begin_epoch(self, epoch: int, rng: np.random.Generator) -> None:
        """Per-epoch hook; AGNN resamples its dynamic neighbourhoods here."""

    def batch_loss(
        self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray
    ) -> Tuple[Tensor, Dict[str, float]]:
        """Return (total loss tensor, {loss component name: value}) for a batch."""
        raise NotImplementedError

    def predict_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Raw (unclipped) predictions; called inside ``no_grad``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ training
    def fit(self, task: RecommendationTask, config: Optional[TrainConfig] = None) -> TrainHistory:
        """Mini-batch training on ``task``'s training interactions."""
        with span("fit"):
            return self._fit(task, config if config is not None else TrainConfig())

    def _fit(self, task: RecommendationTask, config: TrainConfig) -> TrainHistory:
        self.task = task
        self._rating_scale = task.dataset.rating_scale
        self.history = TrainHistory()
        # Telemetry level full: run manifest + health monitors.
        # None when disabled, so the loop below pays one `is None` per batch.
        observer = maybe_fit_observer(self, task, config)
        with span("prepare"):
            self.prepare(task)
        params = list(self.parameters())
        optimizer = Adam(params, lr=config.learning_rate, weight_decay=config.weight_decay) if params else None

        rng = np.random.default_rng(config.seed)
        users_all = task.train_users
        items_all = task.train_items
        ratings_all = task.train_ratings
        n = len(users_all)
        if n == 0:
            raise ValueError("task has no training interactions")

        # Hold out a validation slice of the training interactions for early
        # stopping.  Graphs were already built from the full training set in
        # prepare(); only the SGD supervision excludes the validation rows.
        use_validation = config.validation_fraction > 0 and config.patience is not None and n >= 20
        if use_validation:
            order0 = rng.permutation(n)
            n_val = max(int(n * config.validation_fraction), 1)
            val_rows, fit_rows = order0[:n_val], order0[n_val:]
        else:
            val_rows, fit_rows = np.empty(0, dtype=np.int64), np.arange(n)

        best_val = np.inf
        best_state: Optional[Dict[str, np.ndarray]] = None
        epochs_since_best = 0

        self.train()
        for epoch in range(config.epochs):
            with span("epoch"):
                self.begin_epoch(epoch, rng)
                order = rng.permutation(len(fit_rows))
                sums: Dict[str, float] = {}
                weight = 0
                for start in range(0, len(fit_rows), config.batch_size):
                    batch = fit_rows[order[start : start + config.batch_size]]
                    with span("batch"):
                        if optimizer is not None:
                            optimizer.zero_grad()
                        loss, parts = self.batch_loss(users_all[batch], items_all[batch], ratings_all[batch])
                        if optimizer is not None:
                            loss.backward()
                            if config.grad_clip is not None:
                                clip_grad_norm(params, config.grad_clip)
                            optimizer.step()
                    for name, value in parts.items():
                        sums[name] = sums.get(name, 0.0) + value * len(batch)
                    weight += len(batch)
                    increment("train.batches")
                    increment("train.examples", len(batch))
                    if observer is not None:
                        observer.after_batch(epoch)
                epoch_losses = {name: value / weight for name, value in sums.items()}

                if use_validation:
                    with span("validation"):
                        predictions = self.predict(users_all[val_rows], items_all[val_rows])
                    val_rmse = float(np.sqrt(np.mean((predictions - ratings_all[val_rows]) ** 2)))
                    epoch_losses["val_rmse"] = val_rmse
                    self.train()
                    if val_rmse < best_val - 1e-5:
                        best_val = val_rmse
                        best_state = self.state_dict()
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
            increment("train.epochs")
            self.history.record(epoch_losses)
            if observer is not None:
                observer.after_epoch(epoch, epoch_losses)
            if config.verbose:
                tail = " ".join(f"{k}={v:.4f}" for k, v in epoch_losses.items())
                print(f"[{self.name}] epoch {epoch + 1}/{config.epochs} {tail}")
            if use_validation and epochs_since_best >= config.patience:
                break
        if best_state is not None:
            self.load_state_dict(best_state)
            self._invalidate_inference_cache()
        self.eval()
        if observer is not None:
            observer.finish(self.history)
        # Opt-in post-fit invariant sweep (REPRO_VERIFY=1).  Imported at call
        # time: repro.verify.invariants inspects core model types, so a
        # top-level import here would be circular.
        from ..verify.invariants import maybe_verify_fit

        maybe_verify_fit(self)
        return self.history

    def _invalidate_inference_cache(self) -> None:
        """Hook for models that cache derived inference state (AGNN overrides)."""

    def fit_incremental(self, bundle, new_interactions, new_users=None, new_items=None, config=None):
        """Warm-start from an exported bundle and fold in new data.

        Part of the continuous-learning protocol (``repro.live``); AGNN
        implements it.  Models without a bundle format cannot refresh.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental refresh; "
            "only bundle-exporting models (AGNN) do"
        )

    # ------------------------------------------------------------------ inference
    def predict(self, users: np.ndarray, items: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        """Clipped rating predictions for aligned (user, item) arrays."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError("users and items must align")
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        was_training = self.training
        self.eval()
        out = np.empty(len(users), dtype=np.float64)
        with span("predict"), no_grad():
            for start in range(0, len(users), batch_size):
                stop = min(start + batch_size, len(users))
                scores = np.asarray(self.predict_scores(users[start:stop], items[start:stop]))
                out[start:stop] = scores.reshape(stop - start)
        increment("predict.pairs", len(users))
        if was_training:
            self.train()
        low, high = self._rating_scale
        return np.clip(out, low, high)

    def evaluate(self, task: Optional[RecommendationTask] = None) -> EvalResult:
        """Score on the task's test split."""
        task = task or self.task
        if task is None:
            raise RuntimeError("evaluate() needs a task; fit first or pass one")
        predictions = self.predict(task.test_users, task.test_items)
        return EvalResult.from_predictions(predictions, task.test_ratings)
