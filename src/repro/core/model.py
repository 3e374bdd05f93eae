"""The AGNN model (paper Sec. 3), assembled from the layer modules.

Pipeline per (user, item) pair:

1. **input layer** — user–user and item–item attribute graphs built from
   proximities over *training* data (``repro.graphs``); neighbourhoods are
   re-sampled from the candidate pools every epoch (dynamic strategy);
2. **attribute interaction layer** — node embedding ``p_u = W[m_u; x_u] + b``
   with Bi-Interaction attribute pooling;
3. **eVAE** — trained to map attribute embeddings onto preference embeddings;
   at inference it *generates* ``m_u`` for strict cold start nodes;
4. **gated-GNN** — per-dimension gated aggregation over the sampled
   neighbourhood;
5. **prediction layer** — MLP + inner product + biases.

Loss: ``L = L_pred + λ (L_recon_user + L_recon_item)`` (Eq. 15).

Every ablation/replacement of Tables 3–4 is a configuration of this class —
see ``repro.core.variants``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad, ops
from ..data.splits import RecommendationTask
from ..graphs import (
    NeighborGraph,
    build_attribute_graph,
    build_copurchase_graph,
    build_knn_graph,
)
from ..nn.functional import mse_loss
from ..telemetry import events, increment, set_gauge, span
from ..train.recommender import Recommender
from .cold_modules import CorruptionStrategy, make_cold_module
from .config import AGNNConfig
from .gated_gnn import make_aggregator
from .interaction import NodeEncoder
from .prediction import PredictionHead

__all__ = ["AGNN"]

#: Row-block size for the precomputed inference embeddings.  Must match the
#: serving engine's block size: the offline↔online bitwise-parity invariant
#: relies on both sides refining identically-sliced blocks.
INFERENCE_BLOCK = 2048


class AGNN(Recommender):
    """Attribute Graph Neural Network for strict cold start rating prediction."""

    name = "AGNN"

    def __init__(self, config: Optional[AGNNConfig] = None, rng_seed: int = 0) -> None:
        super().__init__()
        # A `config: AGNNConfig = AGNNConfig()` default would be evaluated once
        # at class definition and shared by every default-constructed model;
        # AGNNConfig is frozen today, but per-instance construction keeps two
        # models from ever aliasing the same config object.
        self.config = config if config is not None else AGNNConfig()
        self._rng = np.random.default_rng(rng_seed)
        self._built = False
        # Per-task state, created in prepare():
        self._graphs: Dict[str, NeighborGraph] = {}
        # Pre-built graphs consumed once by the next prepare() — the
        # incremental-refresh path splices new nodes into the parent bundle's
        # pools instead of paying the n² rebuild (repro.live.incremental).
        self._pending_graphs: Optional[Dict[str, NeighborGraph]] = None
        self._neighbours: Dict[str, np.ndarray] = {}
        self._attributes: Dict[str, np.ndarray] = {}
        self._inference_pref: Dict[str, Optional[np.ndarray]] = {"user": None, "item": None}
        self._inference_refined: Dict[str, Optional[np.ndarray]] = {"user": None, "item": None}
        self._cold_nodes: Dict[str, np.ndarray] = {}
        # Per-batch scratch: the deduped attribute embeddings computed by
        # _encode_side, reused by the eVAE reconstruction loss in the same
        # batch_loss call (refreshed on every encode, never serialized).
        self._encode_attr_cache: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}

    # ------------------------------------------------------------------ setup
    def build_architecture(
        self,
        num_users: int,
        num_items: int,
        user_attr_dim: int,
        item_attr_dim: int,
        global_mean: float,
    ) -> None:
        """Instantiate all sub-modules from dataset *shapes*.

        Normally called through :meth:`prepare` with a task, but exposed so a
        serving process can rebuild the architecture from a bundle manifest
        and load saved weights without the training dataset.
        """
        cfg = self.config
        self.user_encoder = NodeEncoder(num_users, user_attr_dim, cfg.embedding_dim, cfg.leaky_slope)
        self.item_encoder = NodeEncoder(num_items, item_attr_dim, cfg.embedding_dim, cfg.leaky_slope)
        self.user_aggregator = make_aggregator(
            cfg.aggregator, cfg.embedding_dim, cfg.leaky_slope, cfg.use_aggregate_gate, cfg.use_filter_gate
        )
        self.item_aggregator = make_aggregator(
            cfg.aggregator, cfg.embedding_dim, cfg.leaky_slope, cfg.use_aggregate_gate, cfg.use_filter_gate
        )
        user_cold, _ = make_cold_module(
            cfg.cold_module, cfg.embedding_dim, cfg.hidden, cfg.latent, cfg.leaky_slope, cfg.mask_rate, self._rng
        )
        item_cold, _ = make_cold_module(
            cfg.cold_module, cfg.embedding_dim, cfg.hidden, cfg.latent, cfg.leaky_slope, cfg.mask_rate, self._rng
        )
        self.user_cold = user_cold
        self.item_cold = item_cold
        self.head = PredictionHead(
            cfg.embedding_dim,
            num_users,
            num_items,
            global_mean=global_mean,
            hidden_dim=cfg.prediction_hidden,
        )
        self._built = True

    def _build(self, task: RecommendationTask) -> None:
        dataset = task.dataset
        self.build_architecture(
            dataset.num_users,
            dataset.num_items,
            dataset.user_attributes.shape[1],
            dataset.item_attributes.shape[1],
            task.train_global_mean,
        )

    def _build_graph(self, task: RecommendationTask, side: str) -> NeighborGraph:
        cfg = self.config
        if cfg.graph_strategy == "dynamic":
            return build_attribute_graph(
                task,
                side,
                pool_percent=cfg.pool_percent,
                use_attribute=cfg.use_attribute_proximity,
                use_preference=cfg.use_preference_proximity,
                min_pool=cfg.num_neighbors,
                candidate_strategy=cfg.graph_candidate_strategy,
            )
        if cfg.graph_strategy == "knn":
            return build_knn_graph(task, side, k=cfg.knn_k)
        if cfg.graph_strategy == "copurchase":
            return build_copurchase_graph(task, side, k=cfg.knn_k)
        raise ValueError(f"unknown graph strategy {cfg.graph_strategy!r}")

    def prepare(self, task: RecommendationTask) -> None:
        with span("agnn.prepare"):
            self._prepare(task)

    def _prepare(self, task: RecommendationTask) -> None:
        if not self._built:
            self._build(task)
        self._attributes = {
            "user": task.dataset.user_attributes,
            "item": task.dataset.item_attributes,
        }
        with span("graph.build"):
            if self._pending_graphs is not None:
                self._graphs = self._pending_graphs
                self._pending_graphs = None
            else:
                self._graphs = {
                    "user": self._build_graph(task, "user"),
                    "item": self._build_graph(task, "item"),
                }
        # Initial neighbourhoods (re-sampled per epoch for dynamic graphs).
        self._neighbours = {
            side: graph.neighbours(self.config.num_neighbors, self._rng) for side, graph in self._graphs.items()
        }
        # Nodes with zero training interactions need generated preference.
        train_user_set = np.zeros(task.dataset.num_users, dtype=bool)
        train_user_set[task.train_users] = True
        train_item_set = np.zeros(task.dataset.num_items, dtype=bool)
        train_item_set[task.train_items] = True
        self._cold_nodes = {
            "user": np.flatnonzero(~train_user_set),
            "item": np.flatnonzero(~train_item_set),
        }
        self._inference_pref = {"user": None, "item": None}
        self._inference_refined = {"user": None, "item": None}

    def fit_incremental(
        self,
        bundle,
        new_interactions,
        new_users: Optional[np.ndarray] = None,
        new_items: Optional[np.ndarray] = None,
        config=None,
    ):
        """Warm-started refresh from an exported bundle (``repro.live``).

        Rebuilds this model at the extended node counts, copies every trained
        weight row from the bundle, seeds brand-new preference rows from the
        parent's eVAE, splices the new nodes into the parent's candidate pools
        (no n² graph rebuild), then runs a short deterministic fit over the
        replayed training interactions plus the new stream.  Returns the
        refresh :class:`~repro.train.history.TrainHistory`; the combined task
        is left on ``self.task`` for evaluation and re-export.
        """
        # Imported at call time: repro.live sits above core in the layering.
        from ..live.incremental import run_incremental_fit

        return run_incremental_fit(self, bundle, new_interactions, new_users, new_items, config)

    def begin_epoch(self, epoch: int, rng: np.random.Generator) -> None:
        """Dynamic graph construction: fresh neighbourhood sample each round."""
        with span("agnn.resample"):
            self._neighbours = {
                side: graph.neighbours(self.config.num_neighbors, rng) for side, graph in self._graphs.items()
            }
        increment("agnn.resamples")
        self._inference_pref = {"user": None, "item": None}
        self._inference_refined = {"user": None, "item": None}

    def _invalidate_inference_cache(self) -> None:
        """Weights were restored (early stopping): regenerate cold preferences."""
        self._inference_pref = {"user": None, "item": None}
        self._inference_refined = {"user": None, "item": None}

    # ------------------------------------------------------------------ encoding
    def _encoder(self, side: str) -> NodeEncoder:
        return self.user_encoder if side == "user" else self.item_encoder

    def _aggregator(self, side: str):
        return self.user_aggregator if side == "user" else self.item_aggregator

    def _cold_module(self, side: str):
        return self.user_cold if side == "user" else self.item_cold

    def _encode_side(
        self,
        side: str,
        ids: np.ndarray,
        preference_override: Optional[np.ndarray] = None,
        corruption_mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Return (p̃ after aggregation, p before aggregation) for node ids.

        A batch references ``B×(k+1)`` node occurrences but typically far
        fewer *distinct* nodes (popular nodes recur as neighbours), so the
        expensive interaction+fusion stack runs once per distinct node and the
        per-occurrence tensors are differentiable gathers from that stack.
        """
        encoder = self._encoder(side)
        attributes = self._attributes[side]
        ids = np.asarray(ids, dtype=np.int64)
        neighbour_ids = self._neighbours[side][ids]  # (B, k)
        batch, k = neighbour_ids.shape
        with span("agnn.encode"):
            if corruption_mask is None:
                stacked = np.concatenate([ids, neighbour_ids.reshape(-1)])
                unique, inverse = np.unique(stacked, return_inverse=True)
                encoded, attr_embed = encoder.node_embedding_with_attr(unique, attributes, preference_override)
                target = ops.embedding(encoded, inverse[:batch])
                neighbours = ops.embedding(encoded, inverse[batch:].reshape(batch, k))
                self._encode_attr_cache[side] = (unique, attr_embed.data)
                distinct = int(unique.size)
            else:
                # Corruption masks are per-occurrence, so the target rows keep
                # their own masked encode; the (unmasked) neighbours still dedup.
                target = encoder.node_embedding(ids, attributes, preference_override, corruption_mask)
                unique, inverse = np.unique(neighbour_ids.reshape(-1), return_inverse=True)
                encoded = encoder.node_embedding(unique, attributes, preference_override)
                neighbours = ops.embedding(encoded, inverse.reshape(batch, k))
                self._encode_attr_cache[side] = None
                distinct = int(unique.size) + batch
            total = batch * (k + 1)
            increment("agnn.encode.total_nodes", total)
            increment("agnn.encode.unique_nodes", distinct)
            set_gauge("agnn.encode.dedup_ratio", distinct / total if total else 1.0)
        aggregated = self._aggregator(side)(target, neighbours)
        return aggregated, target

    # ------------------------------------------------------------------ training
    def batch_loss(
        self, users: np.ndarray, items: np.ndarray, ratings: np.ndarray
    ) -> Tuple[Tensor, Dict[str, float]]:
        cfg = self.config
        parts: Dict[str, float] = {}

        user_mask = self.user_cold.corruption_mask(len(users), self._rng)
        item_mask = self.item_cold.corruption_mask(len(items), self._rng)
        p_tilde, p_raw = self._encode_side("user", users, corruption_mask=user_mask)
        q_tilde, q_raw = self._encode_side("item", items, corruption_mask=item_mask)

        prediction = self.head(p_tilde, q_tilde, users, items)
        pred_loss = mse_loss(prediction, ratings)
        parts["prediction"] = pred_loss.item()
        total = pred_loss

        recon = self._reconstruction_loss(users, items, p_tilde, q_tilde, p_raw, q_raw)
        if recon is not None:
            parts["reconstruction"] = recon.item()
            total = ops.add(total, ops.mul(recon, cfg.recon_weight))
        parts["total"] = total.item()
        return total, parts

    def _reconstruction_loss(
        self,
        users: np.ndarray,
        items: np.ndarray,
        p_tilde: Tensor,
        q_tilde: Tensor,
        p_raw: Tensor,
        q_raw: Tensor,
    ) -> Optional[Tensor]:
        """Sum the cold-start strategies' losses over both sides, if any."""
        terms = []
        for side, ids in (("user", users), ("item", items)):
            module = self._cold_module(side)
            if isinstance(module, CorruptionStrategy) and module.reconstruct:
                aggregated, raw = (p_tilde, p_raw) if side == "user" else (q_tilde, q_raw)
                terms.append(module.decode_loss(aggregated, raw))
            elif module.has_reconstruction_loss:
                unique = np.unique(ids)
                encoder = self._encoder(side)
                # Detach the attribute embedding: the eVAE *reads* it to learn
                # the attribute→preference map; letting reconstruction
                # gradients reshape the attribute-interaction weights trades
                # predictive attribute embeddings for reconstructable ones.
                # _encode_side already computed these rows (detached reuse);
                # fall back to a fresh encode when no cache covers the batch.
                cache = self._encode_attr_cache.get(side)
                if cache is not None and np.isin(unique, cache[0], assume_unique=True).all():
                    attr_embed = Tensor(cache[1][np.searchsorted(cache[0], unique)])
                else:
                    attr_embed = encoder.attribute_embedding(unique, self._attributes[side]).detach()
                preference = encoder.preference(unique)
                terms.append(module.reconstruction_loss(attr_embed, preference))
        if not terms:
            return None
        total = terms[0]
        for term in terms[1:]:
            total = ops.add(total, term)
        return total

    # ------------------------------------------------------------------ inference
    def _inference_preferences(self, side: str) -> np.ndarray:
        """Full (n, D) preference matrix with cold rows generated/zeroed."""
        cached = self._inference_pref[side]
        if cached is not None:
            return cached
        encoder = self._encoder(side)
        matrix = encoder.preference.weight.data.copy()
        cold = self._cold_nodes[side]
        if len(cold):
            with span("agnn.generate_cold"), no_grad():
                attr_embed = encoder.attribute_embedding(cold, self._attributes[side])
                generated = self._cold_module(side).generate(attr_embed)
            matrix[cold] = generated if generated is not None else 0.0
            increment("agnn.cold_nodes_generated", len(cold))
            events.emit("agnn.generate_cold", side=side, cold_nodes=int(len(cold)))
        self._inference_pref[side] = matrix
        return matrix

    def _refined_matrix(self, side: str) -> np.ndarray:
        """Full (n, D) post-gated-GNN embedding matrix for inference.

        Inference embeddings are static once the preferences are frozen, so
        the encode + aggregation runs once per side and every prediction batch
        becomes a row gather + prediction head.  Mirrors the serving engine's
        precompute block-for-block (same INFERENCE_BLOCK slices) so offline
        predictions stay bitwise-equal to the online engine.  Invalidated with
        the preference cache (begin_epoch / _invalidate_inference_cache).
        """
        cached = self._inference_refined[side]
        if cached is not None:
            return cached
        preferences = self._inference_preferences(side)
        attributes = self._attributes[side]
        neighbour_ids = self._neighbours[side]
        encoder = self._encoder(side)
        aggregator = self._aggregator(side)
        n = attributes.shape[0]
        with span("agnn.refine_cache"), no_grad():
            raw = np.empty((n, self.config.embedding_dim))
            for start in range(0, n, INFERENCE_BLOCK):
                stop = min(start + INFERENCE_BLOCK, n)
                block = np.arange(start, stop, dtype=np.int64)
                raw[start:stop] = encoder.node_embedding(block, attributes, preference_override=preferences).data
            refined = np.empty_like(raw)
            for start in range(0, n, INFERENCE_BLOCK):
                stop = min(start + INFERENCE_BLOCK, n)
                refined[start:stop] = aggregator(
                    Tensor(raw[start:stop]), Tensor(raw[neighbour_ids[start:stop]])
                ).data
        self._inference_refined[side] = refined
        return refined

    def predict_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        if not self._built:
            raise RuntimeError("AGNN must be fitted before predicting")
        with span("agnn.predict_scores"):
            users = np.asarray(users, dtype=np.int64)
            items = np.asarray(items, dtype=np.int64)
            p_tilde = Tensor(self._refined_matrix("user")[users])
            q_tilde = Tensor(self._refined_matrix("item")[items])
            return self.head(p_tilde, q_tilde, users, items).data

    def generated_preferences(self, side: str) -> np.ndarray:
        """Public accessor: inference preference matrix (examples/diagnostics)."""
        if side not in ("user", "item"):
            raise ValueError("side must be 'user' or 'item'")
        return self._inference_preferences(side)

    # ------------------------------------------------------------------ serving
    # The online serving layer (repro.serving) keeps its own growable copies of
    # the attribute / preference / neighbour state so live-onboarded nodes can
    # extend past the trained table sizes.  These methods expose the model's
    # fitted state and the per-stage math over *explicit* arrays, so the engine
    # never reaches into training internals.

    @staticmethod
    def _check_side(side: str) -> None:
        if side not in ("user", "item"):
            raise ValueError(f"side must be 'user' or 'item', got {side!r}")

    def neighbour_matrix(self, side: str) -> np.ndarray:
        """The current ``(n, k)`` sampled neighbourhood for ``side``."""
        self._check_side(side)
        if side not in self._neighbours:
            raise RuntimeError("AGNN has no neighbourhoods; fit or prepare first")
        return self._neighbours[side]

    def candidate_graph(self, side: str) -> NeighborGraph:
        """The built attribute graph (candidate pools) for ``side``."""
        self._check_side(side)
        if side not in self._graphs:
            raise RuntimeError("AGNN has no graphs; fit or prepare first")
        return self._graphs[side]

    def cold_node_ids(self, side: str) -> np.ndarray:
        """Ids of nodes with zero training interactions (eVAE-generated)."""
        self._check_side(side)
        return self._cold_nodes.get(side, np.empty(0, dtype=np.int64))

    def generate_cold_preference(self, side: str, attribute_rows: np.ndarray) -> np.ndarray:
        """The paper's SCS path for attribute-only nodes, one batch at a time:
        multi-hot rows → attribute embedding → eVAE-generated preference rows.

        Strategies without a generator (mask/dropout/none) yield zero rows —
        the same embedding those variants serve to cold nodes offline.
        """
        self._check_side(side)
        if not self._built:
            raise RuntimeError("AGNN must be built before generating preferences")
        rows = np.atleast_2d(np.asarray(attribute_rows, dtype=np.float64))
        with no_grad():
            attr_embed = self._encoder(side).interaction(rows)
            generated = self._cold_module(side).generate(attr_embed)
        if generated is None:
            return np.zeros((rows.shape[0], self.config.embedding_dim))
        return np.asarray(generated)

    def raw_node_embeddings(
        self,
        side: str,
        attributes: np.ndarray,
        preferences: np.ndarray,
        ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pre-aggregation node embeddings ``p`` from explicit matrices.

        ``attributes`` is an ``(n, K)`` multi-hot matrix and ``preferences``
        the aligned ``(n, D)`` preference matrix (trained rows plus generated
        cold/onboarded rows); ``ids`` selects rows (default: all).
        """
        self._check_side(side)
        if ids is None:
            ids = np.arange(attributes.shape[0], dtype=np.int64)
        with no_grad():
            embedded = self._encoder(side).node_embedding(ids, attributes, preference_override=preferences)
        return embedded.data

    def refine_node_embeddings(self, side: str, targets: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
        """Run the gated-GNN: ``targets`` (B, D) + ``neighbours`` (B, k, D) → p̃."""
        self._check_side(side)
        with no_grad():
            refined = self._aggregator(side)(Tensor(targets), Tensor(neighbours))
        return refined.data

    def pairwise_scores(
        self,
        user_refined: np.ndarray,
        item_refined: np.ndarray,
        user_bias: np.ndarray,
        item_bias: np.ndarray,
    ) -> np.ndarray:
        """Eq. 14 over precomputed refined embeddings and explicit bias values.

        Bias values come in as arrays (not ids) because onboarded nodes live
        beyond the trained bias tables and contribute zero bias.

        The result is *batch-composition invariant*: a pair's score carries
        the same bit pattern whether it is computed alone, in a sub-batch, or
        inside a fused batch (the serving tier coalesces concurrent requests
        into one call and relies on this).  BLAS routes one-row inputs through
        a gemv kernel that rounds differently from the gemm kernel used for
        ``n >= 2``, so single rows are padded to two before the head MLP.
        """
        pairs = np.concatenate([user_refined, item_refined], axis=1)
        padded = pairs.shape[0] == 1
        if padded:
            pairs = np.concatenate([pairs, pairs], axis=0)
        with no_grad():
            nonlinear = self.head.mlp(Tensor(pairs)).data.reshape(-1)
        if padded:
            nonlinear = nonlinear[:1]
        dot = np.sum(user_refined * item_refined, axis=1)
        return nonlinear + dot + np.asarray(user_bias) + np.asarray(item_bias) + self.head.global_mean
