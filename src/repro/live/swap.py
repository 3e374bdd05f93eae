"""Zero-downtime bundle hot-swap with a pre-flight validation probe.

:func:`swap_bundle` builds a fresh :class:`InferenceEngine` off to the side
(the expensive part — embedding precompute — happens *before* the swap, never
in the request path), probes it with real score calls, and only then installs
it on the serving target:

* a :class:`~repro.serving.batching.BatchingEngine` — the swap rides the FIFO
  queue as a barrier request, so in-flight requests finish on the old bundle
  and no fused batch ever spans generations;
* a :class:`~repro.serving.server.ServingHTTPServer` — handlers read the
  engine reference once per request, so the attribute swap is atomic for the
  direct path, and the server routes through its own batching tier when one
  is attached.

A probe failure rejects the swap (``serve.swap.rejected``): the old engine
keeps serving untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..serving.bundle import ServingBundle
from ..serving.engine import DEFAULT_CACHE_SIZE, InferenceEngine
from ..telemetry import events, increment, span

__all__ = ["SwapValidationError", "SwapReport", "validate_engine", "swap_bundle"]


class SwapValidationError(RuntimeError):
    """The candidate engine failed its pre-flight probe; nothing was swapped."""


@dataclass(frozen=True)
class SwapReport:
    """What a completed hot-swap installed and displaced."""

    fingerprint: str
    version: int
    parent_version: Optional[int]
    previous_fingerprint: str
    previous_version: int
    validated_pairs: int
    elapsed_s: float


def validate_engine(engine: InferenceEngine, pairs: int = 32, seed: int = 0) -> int:
    """Probe a candidate engine with real scores; raise on anything unservable.

    Deterministically-seeded random (user, item) pairs go through the full
    scoring path.  Non-finite scores or scores outside the bundle's rating
    scale mean the bundle would corrupt live traffic — reject before swap.
    """
    rng = np.random.default_rng(seed)
    n_users, n_items = engine.num_users, engine.num_items
    if n_users == 0 or n_items == 0:
        raise SwapValidationError("candidate engine has an empty node set")
    users = rng.integers(0, n_users, size=pairs)
    items = rng.integers(0, n_items, size=pairs)
    try:
        scores = engine.predict_batch(users, items)
    except Exception as exc:
        raise SwapValidationError(f"candidate engine failed to score: {exc}") from exc
    if not np.all(np.isfinite(scores)):
        raise SwapValidationError(
            f"candidate engine produced {int(np.sum(~np.isfinite(scores)))} "
            f"non-finite score(s) in a {pairs}-pair probe"
        )
    low, high = engine.rating_scale
    if scores.min() < low - 1e-9 or scores.max() > high + 1e-9:
        raise SwapValidationError(
            f"candidate engine scored outside the rating scale [{low}, {high}]: "
            f"[{scores.min():.4f}, {scores.max():.4f}]"
        )
    return pairs


def swap_bundle(
    target,
    bundle: ServingBundle,
    cache_size: int = DEFAULT_CACHE_SIZE,
    validate_pairs: int = 32,
) -> SwapReport:
    """Build, validate, and atomically install a new bundle on ``target``.

    ``target`` is anything with a ``swap_engine(engine) -> old_engine`` method
    (:class:`ServingHTTPServer` or :class:`BatchingEngine`), or a
    :class:`~repro.serving.workers.WorkerPool` / pool-backed server, which
    swaps *by bundle path*: every worker remaps the new bundle off-path,
    probes it, and installs it behind its FIFO barrier — no request dropped,
    no response mixing bundles.  Returns a :class:`SwapReport`; raises
    :class:`SwapValidationError` (old engine still live) when the candidate
    fails its probe.
    """
    pool_target = getattr(target, "pool", None) or (
        target if hasattr(target, "swap_bundle_path") and not hasattr(target, "swap_engine") else None
    )
    if pool_target is not None:
        return _swap_bundle_pool(target, pool_target, bundle, validate_pairs)
    swap_method = getattr(target, "swap_engine", None)
    if swap_method is None:
        raise TypeError(
            f"swap target {type(target).__name__} has no swap_engine(); "
            "expected a ServingHTTPServer, BatchingEngine, or WorkerPool"
        )
    started = time.perf_counter()
    with span("live.swap"):
        engine = InferenceEngine(bundle, cache_size=cache_size)
        try:
            validated = validate_engine(engine, pairs=validate_pairs)
        except SwapValidationError as exc:
            increment("serve.swap.rejected")
            events.emit(
                "serve.swap_rejected",
                fingerprint=bundle.fingerprint,
                version=bundle.version,
                error=str(exc),
            )
            raise
        previous = swap_method(engine)
    return SwapReport(
        fingerprint=bundle.fingerprint,
        version=bundle.version,
        parent_version=bundle.parent_version,
        previous_fingerprint=previous.bundle.fingerprint,
        previous_version=previous.bundle.version,
        validated_pairs=validated,
        elapsed_s=time.perf_counter() - started,
    )


def _swap_bundle_pool(target, pool, bundle: ServingBundle, validate_pairs: int) -> SwapReport:
    """Pool path of :func:`swap_bundle`: broadcast the bundle *directory*.

    The pool validates the candidate once in the parent (same deterministic
    probe as the engine path), then every worker remaps + probes off-path and
    switches behind its own FIFO barrier.
    """
    started = time.perf_counter()
    with span("live.swap"):
        previous = {"fingerprint": "", "version": 0}
        for worker in pool.healthz().get("workers", ()):
            if worker.get("responsive"):
                previous = {
                    "fingerprint": worker["bundle_fingerprint"],
                    "version": worker["bundle_version"],
                }
                break
        swap = getattr(target, "swap_bundle_path", pool.swap_bundle_path)
        try:
            swap(bundle.path, validate_pairs=validate_pairs)
        except SwapValidationError as exc:
            increment("serve.swap.rejected")
            events.emit(
                "serve.swap_rejected",
                fingerprint=bundle.fingerprint,
                version=bundle.version,
                error=str(exc),
            )
            raise
    return SwapReport(
        fingerprint=bundle.fingerprint,
        version=bundle.version,
        parent_version=bundle.parent_version,
        previous_fingerprint=previous["fingerprint"],
        previous_version=previous["version"],
        validated_pairs=validate_pairs,
        elapsed_s=time.perf_counter() - started,
    )
