"""Training health monitors: gradient norms, gate saturation, KL collapse, NaNs.

They run only at telemetry level ``full`` (``REPRO_TELEMETRY=full``), through
the :class:`FitObserver` that ``Recommender.fit`` asks
:func:`maybe_fit_observer` for once per fit.

Each monitor implements the tiny :class:`Monitor` protocol — ``observe(model,
epoch, step) → {metric: value}`` — and must be a *pure reader*: no parameter
writes, no RNG draws, no model-cache mutation.  That is what keeps a monitored
fit bitwise-identical to an unmonitored one (the ``obs`` determinism suite
enforces it the same way it does for spans).

The concrete monitors watch the failure modes specific to this model family:

* :class:`GradNormMonitor` — per-parameter-group gradient L2 norms; a group is
  the first component of the dotted parameter name (``user_encoder``,
  ``item_aggregator``, ``head`` …), so vanishing/exploding subsystems show up
  by name;
* :class:`GateSaturationMonitor` — the gated-GNN's aggregate/filter gates are
  sigmoids (Eq. 9/11); the fraction pinned within ``eps`` of 0 or 1 is the
  canonical "the gate died" signal;
* :class:`KLCollapseMonitor` — the eVAE's KL term collapsing to ~0 means the
  inference network ignores the attributes and the strict-cold-start
  generation path (Eq. 6–8) degenerates; also tracks the approximation term
  ``‖x' − m‖`` and its drift between observations;
* :class:`NaNWatchdog` — raises :class:`TrainingHealthError` naming the first
  offending tensor and the epoch/step, instead of letting NaNs silently
  propagate into the goldens.

:class:`MonitorSuite` runs a set of monitors every ``every_n_steps`` batches
(default :data:`DEFAULT_EVERY_N_STEPS`, off the hot path), emits one
``monitor`` event per observation and mirrors the values into telemetry
gauges under ``obs.<monitor>.<metric>``.

The :class:`FitObserver` wires the suite into a fit: it opens a run on the
global event log with a full reproducibility manifest (model name, config,
train config, seed, dataset shape, git describe), observes on the cadence,
emits one ``epoch`` event per epoch with the loss components, and closes the
run with the serialised :class:`~repro.train.history.TrainHistory` and a
final monitor sweep, so ``repro report`` can reconstruct the whole fit from
the event log alone.  Below level ``full`` the observer is ``None`` and the
only cost in the training loop is one ``is None`` check per batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..autograd import no_grad
from ..telemetry import events, metrics, set_gauge, span

__all__ = [
    "Monitor",
    "MonitorSuite",
    "TrainingHealthError",
    "GradNormMonitor",
    "GateSaturationMonitor",
    "KLCollapseMonitor",
    "NaNWatchdog",
    "default_monitors",
    "DEFAULT_EVERY_N_STEPS",
    "FitObserver",
    "maybe_fit_observer",
]

DEFAULT_EVERY_N_STEPS = 25


class TrainingHealthError(RuntimeError):
    """A monitor found the run unrecoverable (non-finite tensors).

    Carries the offending tensor name and the epoch/step so the failure is
    actionable without re-running under a debugger.
    """

    def __init__(self, tensor_name: str, epoch: int, step: int, detail: str) -> None:
        self.tensor_name = tensor_name
        self.epoch = epoch
        self.step = step
        super().__init__(
            f"training health violation in {tensor_name!r} at epoch {epoch}, "
            f"step {step}: {detail}"
        )


@runtime_checkable
class Monitor(Protocol):
    """One health probe: read-only, RNG-free, returns named scalar readings."""

    name: str

    def observe(self, model, epoch: int, step: int) -> Dict[str, float]:
        """Inspect ``model`` and return ``{metric: value}`` (may be empty)."""
        ...


# --------------------------------------------------------------------- helpers
def _is_prepared_agnn(model) -> bool:
    from ..core.model import AGNN

    return isinstance(model, AGNN) and model._built and bool(model._neighbours)


def _sample_ids(n: int, limit: int) -> np.ndarray:
    return np.arange(min(n, limit), dtype=np.int64)


# -------------------------------------------------------------------- monitors
class GradNormMonitor:
    """L2 gradient norms per parameter group (first dotted-name component)."""

    name = "grad_norm"

    def observe(self, model, epoch: int, step: int) -> Dict[str, float]:
        from ..autograd import SparseRowGrad

        groups: Dict[str, float] = {}
        total = 0.0
        seen = False
        for param_name, param in model.named_parameters():
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, SparseRowGrad):
                sq = float(np.sum(grad.values * grad.values))
            else:
                sq = float(np.sum(np.asarray(grad) ** 2))
            group = param_name.split(".", 1)[0]
            groups[group] = groups.get(group, 0.0) + sq
            total += sq
            seen = True
        if not seen:
            return {}
        out = {f"group.{group}": float(np.sqrt(sq)) for group, sq in sorted(groups.items())}
        out["total"] = float(np.sqrt(total))
        return out


class GateSaturationMonitor:
    """Fraction of gated-GNN aggregate/filter gate activations pinned near 0/1.

    Gate values are recomputed under ``no_grad`` for a fixed deterministic
    sample of nodes, straight from the *trained* preference table (no eVAE
    generation, so no inference cache is populated mid-fit).
    """

    name = "gate_saturation"

    def __init__(self, eps: float = 0.01, sample: int = 32) -> None:
        if not 0.0 < eps < 0.5:
            raise ValueError("eps must be in (0, 0.5)")
        self.eps = eps
        self.sample = sample

    def observe(self, model, epoch: int, step: int) -> Dict[str, float]:
        from ..core.gated_gnn import GatedGNN

        if not _is_prepared_agnn(model):
            return {}
        out: Dict[str, float] = {}
        for side in ("user", "item"):
            aggregator = model._aggregator(side)
            if not isinstance(aggregator, GatedGNN):
                continue
            neighbours = model._neighbours[side]
            attributes = model._attributes[side]
            preferences = model._encoder(side).preference.weight.data
            ids = _sample_ids(neighbours.shape[0], self.sample)
            targets = model.raw_node_embeddings(side, attributes, preferences, ids)
            k = neighbours.shape[1]
            neighbour_rows = model.raw_node_embeddings(
                side, attributes, preferences, neighbours[ids].reshape(-1)
            ).reshape(len(ids), k, -1)
            gates = aggregator.gate_values(targets, neighbour_rows)
            for gate_name, values in gates.items():
                pinned = np.mean((values <= self.eps) | (values >= 1.0 - self.eps))
                out[f"{side}.{gate_name}.saturated_frac"] = float(pinned)
                out[f"{side}.{gate_name}.mean"] = float(np.mean(values))
        return out


class KLCollapseMonitor:
    """eVAE KL magnitude + approximation term ``‖x' − m‖`` and its drift.

    Runs the inference network deterministically (``z = μ``, never sampled) on
    a fixed node sample, so the monitor reads the eVAE's state without touching
    any RNG.  ``kl`` near zero flags posterior collapse — the attribute →
    preference generation path (Eq. 6–8) stops carrying information; a large
    jump in ``approx`` between observations flags the generator and the
    preference table drifting apart.
    """

    name = "kl_collapse"

    def __init__(self, sample: int = 64, collapse_threshold: float = 1e-3) -> None:
        self.sample = sample
        self.collapse_threshold = collapse_threshold
        self._last_approx: Dict[str, float] = {}

    def observe(self, model, epoch: int, step: int) -> Dict[str, float]:
        from ..core.cold_modules import EVAEStrategy
        from ..nn.functional import gaussian_kl

        if not _is_prepared_agnn(model):
            return {}
        out: Dict[str, float] = {}
        for side in ("user", "item"):
            module = model._cold_module(side)
            if not isinstance(module, EVAEStrategy):
                continue
            attributes = model._attributes[side]
            ids = _sample_ids(attributes.shape[0], self.sample)
            encoder = model._encoder(side)
            with no_grad():
                attr_embed = encoder.attribute_embedding(ids, attributes)
                mu, log_var = module.vae.encode(attr_embed)
                kl = float(gaussian_kl(mu, log_var).data)
                recon = module.vae.decode(mu).data
            preference = encoder.preference.weight.data[ids]
            approx = float(np.mean(np.linalg.norm(recon - preference, axis=-1)))
            previous = self._last_approx.get(side)
            out[f"{side}.kl"] = kl
            out[f"{side}.kl_collapsed"] = float(kl < self.collapse_threshold)
            out[f"{side}.approx"] = approx
            out[f"{side}.approx_drift"] = approx - previous if previous is not None else 0.0
            out[f"{side}.sigma_mean"] = float(np.mean(np.exp(0.5 * log_var.data)))
            self._last_approx[side] = approx
        return out


class NaNWatchdog:
    """Raise :class:`TrainingHealthError` on the first non-finite tensor."""

    name = "nan_watchdog"

    def observe(self, model, epoch: int, step: int) -> Dict[str, float]:
        from ..autograd import SparseRowGrad

        checked = 0
        for param_name, param in model.named_parameters():
            checked += 1
            if not np.all(np.isfinite(param.data)):
                bad = int(np.sum(~np.isfinite(param.data)))
                raise TrainingHealthError(
                    param_name, epoch, step, f"{bad} non-finite value(s) in parameter data"
                )
            grad = param.grad
            if isinstance(grad, SparseRowGrad):
                grad = grad.values
            if grad is not None and not np.all(np.isfinite(grad)):
                bad = int(np.sum(~np.isfinite(np.asarray(grad))))
                raise TrainingHealthError(
                    param_name, epoch, step, f"{bad} non-finite value(s) in gradient"
                )
        return {"parameters_checked": float(checked)}


def default_monitors() -> List[Monitor]:
    """The full stock suite, in check order (watchdog last: metrics first)."""
    return [GradNormMonitor(), GateSaturationMonitor(), KLCollapseMonitor(), NaNWatchdog()]


# ----------------------------------------------------------------------- suite
class MonitorSuite:
    """Run monitors every ``every_n_steps`` training batches, off the hot path.

    Each observation emits one ``monitor`` event per monitor (with the epoch,
    global step and readings) and mirrors every reading into a telemetry gauge
    ``obs.<monitor>.<metric>`` so live dashboards see the latest values.
    """

    def __init__(
        self,
        monitors: Optional[Sequence[Monitor]] = None,
        every_n_steps: Optional[int] = None,
    ) -> None:
        if every_n_steps is None:
            every_n_steps = DEFAULT_EVERY_N_STEPS
        if every_n_steps < 1:
            raise ValueError("every_n_steps must be positive")
        self.monitors: List[Monitor] = list(monitors) if monitors is not None else default_monitors()
        self.every_n_steps = every_n_steps
        self.step = 0
        self.observations = 0
        self.last: Dict[str, Dict[str, float]] = {}

    def after_batch(self, model, epoch: int) -> None:
        """Call once per optimiser step; observes on the configured cadence."""
        self.step += 1
        if self.step % self.every_n_steps:
            return
        self.observe(model, epoch)

    def observe(self, model, epoch: int) -> Dict[str, Dict[str, float]]:
        """Force an observation of every monitor right now."""
        readings: Dict[str, Dict[str, float]] = {}
        with span("obs.monitor"):
            for monitor in self.monitors:
                try:
                    values = monitor.observe(model, epoch, self.step)
                except TrainingHealthError as exc:
                    events.emit(
                        "health_error",
                        monitor=monitor.name,
                        epoch=epoch,
                        step=self.step,
                        tensor=exc.tensor_name,
                        error=str(exc),
                    )
                    raise
                if not values:
                    continue
                readings[monitor.name] = values
                events.emit("monitor", monitor=monitor.name, epoch=epoch, step=self.step, values=values)
                for key, value in values.items():
                    set_gauge(f"obs.{monitor.name}.{key}", value)
        self.observations += 1
        self.last.update(readings)
        return readings


# -------------------------------------------------------------------- observer
class FitObserver:
    """Event + monitor bookkeeping for one ``fit`` call."""

    def __init__(self, model, task, config, suite: Optional[MonitorSuite] = None) -> None:
        self.model = model
        self.suite = suite if suite is not None else MonitorSuite()
        dataset_shape: Dict[str, Any] = {}
        dataset = getattr(task, "dataset", None)
        if dataset is not None:
            dataset_shape = {
                "name": getattr(dataset, "name", "unknown"),
                "num_users": int(dataset.num_users),
                "num_items": int(dataset.num_items),
                "scenario": getattr(task, "scenario", "unknown"),
                "train_interactions": int(len(task.train_users)),
            }
        manifest = events.build_run_manifest(
            model_name=getattr(model, "name", type(model).__name__),
            config=getattr(model, "config", None),
            train_config=config,
            seed=getattr(config, "seed", None),
            dataset_shape=dataset_shape,
            every_n_steps=self.suite.every_n_steps,
            monitors=[monitor.name for monitor in self.suite.monitors],
        )
        self.run_id = events.start_run(manifest)

    # ------------------------------------------------------------------ hooks
    def after_batch(self, epoch: int) -> None:
        """Per-batch cadence hook (cheap: one modulo off the observation steps)."""
        self.suite.after_batch(self.model, epoch)

    def after_epoch(self, epoch: int, losses: Dict[str, float]) -> None:
        events.emit("epoch", epoch=epoch, losses=losses)

    def finish(self, history) -> None:
        """Final monitor sweep + run closure with the serialised history."""
        final = self.suite.observe(self.model, epoch=max(history.num_epochs - 1, 0))
        events.emit(
            "fit_end",
            epochs=history.num_epochs,
            history=history.to_dict(),
            monitor_observations=self.suite.observations,
        )
        events.end_run(final_monitors=final)


def maybe_fit_observer(model, task, config) -> Optional[FitObserver]:
    """An observer at telemetry level ``full``, else ``None`` (zero hot-path cost)."""
    if not metrics.is_full():
        return None
    return FitObserver(model, task, config)
