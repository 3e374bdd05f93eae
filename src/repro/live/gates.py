"""Promotion gates: a refreshed model must prove itself before going live.

The continuous loop only promotes a refresh that passes two families of
checks, both reusing existing observability machinery rather than inventing
new judges:

* **training health** — the :mod:`repro.train.monitors` health monitors run
  once against the refreshed model: :class:`NaNWatchdog` (non-finite weights),
  :class:`GateSaturationMonitor` (dead gated-GNN gates) and
  :class:`KLCollapseMonitor` (eVAE posterior state).  The KL magnitude is
  recorded alongside the parent's own KL for comparison but does *not* veto
  on its own: a converged model legitimately sits at a tiny KL, and the
  refresh holdout already contains the stream's cold users/items, so a
  genuinely degenerated generation path surfaces as RMSE drift.  Only a
  non-positive or non-finite KL (the encoder literally outputting zeros)
  rejects outright;
* **eval drift** — RMSE on the refresh holdout, and on the *warm* subset of
  that holdout a head-to-head against the parent bundle's own predictions
  (served through an :class:`~repro.serving.engine.InferenceEngine`, exactly
  as production would).  A refresh that is worse than its parent by more than
  ``max_rmse_ratio`` is rejected.

A rejected refresh is never exported: the store keeps its latest generation
and the serving tier keeps answering from the old bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..autograd import no_grad
from ..serving.engine import InferenceEngine
from ..telemetry import events, span
from ..train.monitors import (
    GateSaturationMonitor,
    KLCollapseMonitor,
    NaNWatchdog,
    TrainingHealthError,
)

__all__ = ["GateConfig", "PromotionDecision", "evaluate_promotion"]


@dataclass(frozen=True)
class GateConfig:
    """Thresholds for the promotion decision."""

    #: reject when any gated-GNN gate has more than this fraction of its
    #: activations pinned to 0/1 (a fully saturated gate stopped learning)
    max_gate_saturation: float = 0.98
    #: reject when refreshed warm-holdout RMSE exceeds parent × this ratio
    max_rmse_ratio: float = 1.05
    #: require at least this many warm holdout pairs before trusting the
    #: parent comparison (tiny samples make the ratio pure noise)
    min_warm_pairs: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.max_gate_saturation <= 1.0:
            raise ValueError("max_gate_saturation must be in (0, 1]")
        if self.max_rmse_ratio <= 0:
            raise ValueError("max_rmse_ratio must be positive")


@dataclass
class PromotionDecision:
    """The gate verdict plus everything needed to explain it."""

    accepted: bool
    reasons: List[str] = field(default_factory=list)
    readings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: refreshed model's RMSE on the full refresh holdout (None: empty holdout)
    rmse: Optional[float] = None
    #: parent bundle's RMSE on the warm subset of the holdout
    baseline_rmse: Optional[float] = None
    #: refreshed model's RMSE on that same warm subset
    warm_rmse: Optional[float] = None

    def as_dict(self) -> Dict:
        return {
            "accepted": self.accepted,
            "reasons": list(self.reasons),
            "rmse": self.rmse,
            "baseline_rmse": self.baseline_rmse,
            "warm_rmse": self.warm_rmse,
        }


def _rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def _parent_kl(parent_bundle, side: str, sample: int) -> Optional[float]:
    """The parent bundle's own eVAE KL on its first ``sample`` nodes.

    ``None`` when the parent has no eVAE on that side (nothing to compare)."""
    from ..core.cold_modules import EVAEStrategy
    from ..nn.functional import gaussian_kl

    model = parent_bundle.model
    module = model._cold_module(side)
    if not isinstance(module, EVAEStrategy):
        return None
    attributes = (
        parent_bundle.user_attributes if side == "user" else parent_bundle.item_attributes
    )
    ids = np.arange(min(attributes.shape[0], sample), dtype=np.int64)
    encoder = model._encoder(side)
    with no_grad():
        attr_embed = encoder.attribute_embedding(ids, attributes)
        mu, log_var = module.vae.encode(attr_embed)
        return float(gaussian_kl(mu, log_var).data)


def evaluate_promotion(
    model,
    task,
    parent_bundle,
    config: Optional[GateConfig] = None,
) -> PromotionDecision:
    """Gate a refreshed ``model`` (fitted on ``task``) against its parent."""
    config = config if config is not None else GateConfig()
    decision = PromotionDecision(accepted=True)

    with span("live.gates"):
        # -- training health -------------------------------------------------
        kl_monitor = KLCollapseMonitor()
        for monitor in (NaNWatchdog(), GateSaturationMonitor(), kl_monitor):
            try:
                values = monitor.observe(model, epoch=-1, step=-1)
            except TrainingHealthError as exc:
                decision.reasons.append(f"{monitor.name}: {exc}")
                continue
            if values:
                decision.readings[monitor.name] = values
        for key, value in decision.readings.get("gate_saturation", {}).items():
            if key.endswith(".saturated_frac") and value > config.max_gate_saturation:
                decision.reasons.append(
                    f"gate_saturation: {key} = {value:.3f} > {config.max_gate_saturation}"
                )
        # KL magnitude is context, not a veto: a converged model sits at a
        # tiny KL while its cold-node eval stays healthy, and the refresh
        # holdout judges the generation path directly.  Only a degenerate
        # posterior (KL exactly zero or non-finite) rejects here.
        kl_readings = decision.readings.get("kl_collapse", {})
        for side in ("user", "item"):
            kl = kl_readings.get(f"{side}.kl")
            if kl is None:
                continue
            parent_kl = _parent_kl(parent_bundle, side, sample=kl_monitor.sample)
            if parent_kl is not None:
                kl_readings[f"{side}.parent_kl"] = parent_kl
            if kl <= 0.0 or not np.isfinite(kl):
                decision.reasons.append(
                    f"kl_collapse: {side}.kl = {kl} (degenerate posterior)"
                )

        # -- eval drift vs the parent ----------------------------------------
        test_users, test_items, test_ratings = task.test_users, task.test_items, task.test_ratings
        if len(test_users):
            predictions = model.predict(test_users, test_items)
            decision.rmse = _rmse(predictions, test_ratings)
            if not np.isfinite(decision.rmse):
                decision.reasons.append(f"eval: non-finite holdout RMSE ({decision.rmse})")
            # Only pairs inside the parent's node universe can be compared —
            # the parent has never seen the refresh's appended nodes.
            warm = (test_users < parent_bundle.user_attributes.shape[0]) & (
                test_items < parent_bundle.item_attributes.shape[0]
            )
            if int(warm.sum()) >= config.min_warm_pairs:
                parent_engine = InferenceEngine(parent_bundle, cache_size=0)
                baseline = parent_engine.predict_batch(test_users[warm], test_items[warm])
                decision.baseline_rmse = _rmse(baseline, test_ratings[warm])
                decision.warm_rmse = _rmse(predictions[warm], test_ratings[warm])
                if (
                    decision.baseline_rmse > 0
                    and decision.warm_rmse > decision.baseline_rmse * config.max_rmse_ratio
                ):
                    decision.reasons.append(
                        f"eval: warm RMSE {decision.warm_rmse:.4f} drifted past parent "
                        f"{decision.baseline_rmse:.4f} × {config.max_rmse_ratio}"
                    )

    decision.accepted = not decision.reasons
    events.emit(
        "live.promotion",
        accepted=decision.accepted,
        reasons=decision.reasons,
        rmse=decision.rmse,
        baseline_rmse=decision.baseline_rmse,
        warm_rmse=decision.warm_rmse,
        parent_version=parent_bundle.version,
    )
    return decision
