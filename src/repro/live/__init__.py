"""repro.live — the continuous-learning loop over exported bundles.

Three pillars, each usable on its own:

* **incremental training** (:mod:`.incremental`) — warm-start a refresh from
  an exported bundle: weights copied row-wise, new nodes spliced into the
  candidate graphs (no n² rebuild), new preference rows seeded by the
  parent's eVAE, then a short deterministic fit over replayed + new data;
* **versioned bundles** (:mod:`.store`) — a :class:`BundleStore` directory of
  generations with parent lineage and integrity fingerprints;
* **zero-downtime hot-swap** (:mod:`.swap`) — validate a candidate engine
  off-path and install it atomically under the serving tier; in-flight
  requests finish on the old generation and no response mixes bundles.

:mod:`.gates` decides promotion (health monitors + RMSE drift vs the
parent), :mod:`.refresh` turns the full crank (refresh → gate → publish →
swap); the ``refresh`` suite of ``repro bench`` measures all of it into
``BENCH_refresh.json``.
"""

from .gates import GateConfig, PromotionDecision, evaluate_promotion
from .incremental import DEFAULT_REFRESH_CONFIG, build_refresh_task, run_incremental_fit, splice_graphs
from .refresh import RefreshResult, StreamBatch, run_refresh, simulate_stream
from .store import BundleIntegrityError, BundleStore
from .swap import SwapReport, SwapValidationError, swap_bundle, validate_engine

__all__ = [
    "DEFAULT_REFRESH_CONFIG",
    "build_refresh_task",
    "run_incremental_fit",
    "splice_graphs",
    "BundleStore",
    "BundleIntegrityError",
    "GateConfig",
    "PromotionDecision",
    "evaluate_promotion",
    "SwapReport",
    "SwapValidationError",
    "swap_bundle",
    "validate_engine",
    "StreamBatch",
    "RefreshResult",
    "run_refresh",
    "simulate_stream",
]
