"""The online inference engine: cached refined embeddings + scoring + top-N.

The engine wraps a loaded :class:`~repro.serving.bundle.ServingBundle` and
keeps *growable* copies of everything the gated-GNN pipeline needs per side:

* ``_attr``      — multi-hot attribute matrices;
* ``_pref``      — preference matrices (trained rows; eVAE-generated rows for
  strict-cold-start and onboarded nodes);
* ``_neigh``     — the ``(n, k)`` neighbour index matrices;
* ``_raw``       — pre-aggregation node embeddings ``p`` (feeds neighbours);
* ``_refined``   — post-gated-GNN embeddings ``p̃`` for *all* known nodes,
  precomputed once so a score is two gathers and one small MLP;
* ``_bias``      — per-node rating biases (zero for onboarded nodes, which
  live beyond the trained bias tables).

Scoring runs under ``no_grad`` throughout and is clipped to the bundle's
rating scale.  A bounded LRU cache memoises per-pair scores; it is
invalidated whenever onboarding changes the node set.  All public methods are
thread-safe (one re-entrant lock), so the stdlib threading HTTP server can
call straight into the engine.

Telemetry: ``serve.refresh`` (embedding precompute), ``serve.score`` with
``serve.cache`` (lookup) and ``serve.score_cold`` (uncached compute) children,
``serve.topn``, and counters ``serve.scores`` / ``serve.cache.hits`` /
``serve.cache.misses`` / ``serve.topn.requests``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..graphs.candidates import CandidateIndex, default_budgets
from ..telemetry import events, increment, set_gauge, span
from .bundle import ServingBundle
from .onboarding import encode_attribute_row, splice_neighbours

__all__ = ["DEFAULT_CACHE_SIZE", "InferenceEngine"]

_SIDES = ("user", "item")

#: Score-cache capacity in (user, item) pairs.  An LRU entry costs ~240 B of
#: Python objects and ~400 B of process memory, so a full cache holds ~4 MB
#: in each engine (one per serving worker).  Random rerank traffic repeats
#: few pairs, so a larger cache buys little but memory.
DEFAULT_CACHE_SIZE = 10_000


def _take_rows(matrix: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Gather ``matrix`` rows by id without copying when a view suffices.

    Fancy indexing always copies; two request shapes dominate serving and
    need no copy at all — important when the backing store is a read-only
    mmap shared across worker processes:

    * a constant id (the user side of top-N: one user against every item)
      becomes a broadcast view of that single row;
    * a contiguous ascending range (the item side of top-N: ``arange(n)``)
      becomes a plain slice.

    Views are returned read-only so no caller can write through to the
    (possibly process-shared) store; everything else falls back to the
    fancy-index gather, which owns its data.
    """
    n = ids.size
    if n > 1:
        first = int(ids[0])
        last = int(ids[-1])
        if first == last and not np.any(ids != first):
            return np.broadcast_to(matrix[first], (n,) + matrix.shape[1:])
        if last - first == n - 1 and bool((np.diff(ids) == 1).all()):
            view = matrix[first : first + n]
            if view.flags.writeable:
                view = view.view()
                view.flags.writeable = False
            return view
    return matrix[ids]


class InferenceEngine:
    """Serve rating predictions and top-N retrieval from a model bundle."""

    def __init__(
        self,
        bundle: ServingBundle,
        cache_size: int = DEFAULT_CACHE_SIZE,
        batch_size: int = 2048,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.bundle = bundle
        self.model = bundle.model
        self.model.eval()
        self.rating_scale = bundle.rating_scale
        self.cache_size = cache_size
        self.batch_size = batch_size
        self.created_at = time.time()
        self._lock = threading.RLock()
        self._cache_hits = 0
        self._cache_misses = 0

        mapped = getattr(bundle, "mapped", None)
        if mapped is not None:
            # Mapped bundle: adopt the read-only mmap arrays as-is.  No copy,
            # no precompute — the parent process materialised them through a
            # donor engine, so they are bitwise what we would derive here, and
            # every sibling worker shares the same physical pages.  Growth
            # (onboarding) replaces whole arrays via copy-on-grow, so the
            # read-only store is never written through.
            self._attr: Dict[str, np.ndarray] = {s: mapped[s]["attr"] for s in _SIDES}
            self._neigh: Dict[str, np.ndarray] = {s: mapped[s]["neigh"] for s in _SIDES}
            self._bias: Dict[str, np.ndarray] = {s: mapped[s]["bias"] for s in _SIDES}
            self._pref: Dict[str, np.ndarray] = {s: mapped[s]["pref"] for s in _SIDES}
        else:
            self._attr = {side: bundle.attributes(side).copy() for side in _SIDES}
            self._neigh = {side: bundle.neighbours[side].copy() for side in _SIDES}
            self._bias = {
                "user": self.model.head.user_bias.value.data.copy(),
                "item": self.model.head.item_bias.value.data.copy(),
            }
            self._pref = {}
            for side in _SIDES:
                pref = self.model._encoder(side).preference.weight.data.copy()
                cold = bundle.cold_nodes.get(side, np.empty(0, dtype=np.int64))
                if len(cold):
                    pref[cold] = self.model.generate_cold_preference(
                        side, self._attr[side][cold]
                    )
                self._pref[side] = pref
        self._base_count: Dict[str, int] = {
            side: self._attr[side].shape[0] for side in _SIDES
        }

        self._seen: Dict[int, Set[int]] = {}
        for user, item in zip(bundle.train_users.tolist(), bundle.train_items.tolist()):
            self._seen.setdefault(user, set()).add(item)

        self._raw: Dict[str, np.ndarray] = {}
        self._refined: Dict[str, np.ndarray] = {}
        # Per-side inverted indexes for sublinear onboarding splices; built
        # lazily on first onboard when the bundle's config opted in.
        self._cand_index: Dict[str, Optional[CandidateIndex]] = {
            side: None for side in _SIDES
        }
        self._cache: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        if mapped is not None:
            self._raw = {s: mapped[s]["raw"] for s in _SIDES}
            self._refined = {s: mapped[s]["refined"] for s in _SIDES}
            for side in _SIDES:
                set_gauge(f"serve.nodes.{side}", float(self.count(side)))
        else:
            self._derive_embeddings()
        # Opt-in construction-time invariant sweep (REPRO_VERIFY=1); imported
        # at call time to keep repro.serving importable without repro.verify.
        from ..verify.invariants import maybe_verify_engine

        maybe_verify_engine(self)
        events.emit(
            "serve.engine_start",
            fingerprint=bundle.fingerprint,
            users=self.num_users,
            items=self.num_items,
            cold_users=int(len(bundle.cold_nodes.get("user", ()))),
            cold_items=int(len(bundle.cold_nodes.get("item", ()))),
        )

    # ------------------------------------------------------------------ state
    @property
    def num_users(self) -> int:
        return self._attr["user"].shape[0]

    @property
    def num_items(self) -> int:
        return self._attr["item"].shape[0]

    def count(self, side: str) -> int:
        return self._attr[side].shape[0]

    def onboarded(self, side: str) -> int:
        """How many nodes were added live (beyond the bundle's base count)."""
        return self.count(side) - self._base_count[side]

    def seen_items(self, user: int) -> Set[int]:
        """Training-time items of ``user`` (empty for onboarded users)."""
        return set(self._seen.get(int(user), set()))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self._cache_hits + self._cache_misses
            return {
                "users": self.num_users,
                "items": self.num_items,
                "onboarded_users": self.onboarded("user"),
                "onboarded_items": self.onboarded("item"),
                "cache_entries": len(self._cache),
                "cache_capacity": self.cache_size,
                "cache_hit_rate": (self._cache_hits / lookups) if lookups else 0.0,
                "bundle_fingerprint": self.bundle.fingerprint,
                "bundle_version": self.bundle.version,
                "bundle_parent_version": self.bundle.parent_version,
                "uptime_s": time.time() - self.created_at,
            }

    # ------------------------------------------------------------- embeddings
    def _derive_embeddings(self) -> None:
        """Recompute raw + refined embeddings for every known node."""
        with self._lock, span("serve.refresh"):
            for side in _SIDES:
                n = self.count(side)
                attr, pref, neigh = self._attr[side], self._pref[side], self._neigh[side]
                # subok=False: pref may be a read-only np.memmap; the scratch
                # buffers must be plain writable heap arrays.
                raw = np.empty_like(pref, subok=False)
                for start in range(0, n, self.batch_size):
                    ids = np.arange(start, min(start + self.batch_size, n), dtype=np.int64)
                    raw[ids] = self.model.raw_node_embeddings(side, attr, pref, ids)
                refined = np.empty_like(raw)
                for start in range(0, n, self.batch_size):
                    stop = min(start + self.batch_size, n)
                    refined[start:stop] = self.model.refine_node_embeddings(
                        side, raw[start:stop], raw[neigh[start:stop]]
                    )
                self._raw[side] = raw
                self._refined[side] = refined
                set_gauge(f"serve.nodes.{side}", float(n))
            self._cache.clear()

    def refined_embeddings(self, side: str) -> np.ndarray:
        """The cached post-gated-GNN embedding matrix (read-only view)."""
        return self._refined[side]

    def resample_neighbourhoods(self, seed: int = 0) -> None:
        """Redraw the bundle's base nodes from their candidate pools (the
        paper's dynamic-diversity sampling as a live operation).  Onboarded
        nodes keep their spliced neighbourhoods; all refined embeddings are
        recomputed and the result cache is invalidated."""
        rng = np.random.default_rng(seed)
        with self._lock:
            for side in _SIDES:
                k = self._neigh[side].shape[1]
                base = self._base_count[side]
                fresh = self.bundle.graphs[side].neighbours(k, rng)
                # Rebuild rather than write in place: the current matrix may
                # be a read-only mmap shared with sibling processes.
                self._neigh[side] = np.concatenate(
                    [fresh[:base], self._neigh[side][base:]], axis=0
                )
            self._derive_embeddings()

    # ---------------------------------------------------------------- scoring
    def _check_ids(self, side: str, ids: np.ndarray) -> None:
        n = self.count(side)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            bad = ids[(ids < 0) | (ids >= n)]
            raise IndexError(f"unknown {side} id(s) {np.unique(bad).tolist()} (have {n})")

    def _compute_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Uncached score path: gather refined rows, run the prediction head."""
        user_rows = _take_rows(self._refined["user"], users)
        item_rows = _take_rows(self._refined["item"], items)
        # Scoring must never hold a writable alias into the refined-embedding
        # store: a view it could write through would corrupt state shared
        # read-only across worker processes.  (Gathers either own their data
        # or come back as explicitly read-only views.)
        for rows, store in ((user_rows, self._refined["user"]), (item_rows, self._refined["item"])):
            assert not rows.flags.writeable or not np.may_share_memory(rows, store)
        scores = self.model.pairwise_scores(
            user_rows,
            item_rows,
            _take_rows(self._bias["user"], users),
            _take_rows(self._bias["item"], items),
        )
        low, high = self.rating_scale
        return np.clip(scores, low, high)

    def score(self, users, items) -> np.ndarray:
        """Clipped rating predictions for aligned id arrays, LRU-cached per pair."""
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        if users.shape != items.shape:
            raise ValueError("users and items must align")
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        with self._lock, span("serve.score"):
            self._check_ids("user", users)
            self._check_ids("item", items)
            out = np.empty(len(users), dtype=np.float64)
            if self.cache_size:
                misses: List[int] = []
                with span("serve.cache"):
                    for j, key in enumerate(zip(users.tolist(), items.tolist())):
                        cached = self._cache.get(key)
                        if cached is None:
                            misses.append(j)
                        else:
                            self._cache.move_to_end(key)
                            out[j] = cached
            else:
                # Memoisation disabled: skip the per-pair Python lookup loop so
                # large fused batches stay fully vectorised.
                misses = list(range(len(users)))
            if misses:
                with span("serve.score_cold"):
                    rows = np.asarray(misses, dtype=np.int64)
                    fresh = self._compute_scores(users[rows], items[rows])
                out[rows] = fresh
                if self.cache_size:
                    for j, value in zip(misses, fresh.tolist()):
                        self._cache[(int(users[j]), int(items[j]))] = value
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
            increment("serve.scores", len(users))
            increment("serve.cache.hits", len(users) - len(misses))
            increment("serve.cache.misses", len(misses))
            self._cache_hits += len(users) - len(misses)
            self._cache_misses += len(misses)
            return out

    def predict_batch(self, users, items, batch_size: Optional[int] = None) -> np.ndarray:
        """Bulk scoring that bypasses the result cache (bench / evaluation path)."""
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        if users.shape != items.shape:
            raise ValueError("users and items must align")
        if users.size == 0:
            return np.empty(0, dtype=np.float64)
        step = batch_size or self.batch_size
        with self._lock, span("serve.score"):
            self._check_ids("user", users)
            self._check_ids("item", items)
            with span("serve.score_cold"):
                chunks = [
                    self._compute_scores(users[start : start + step], items[start : start + step])
                    for start in range(0, len(users), step)
                ]
            increment("serve.scores", len(users))
            increment("serve.cache.misses", len(users))
            self._cache_misses += len(users)
            return np.concatenate(chunks)

    def top_n(self, user: int, k: int = 10, exclude_seen: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` highest-scoring items for ``user`` → (item ids, scores).

        With ``exclude_seen`` the user's training-time items are removed —
        recommendation, not rating prediction.  Onboarded items compete on
        equal footing with catalogue items."""
        if k < 1:
            raise ValueError("k must be positive")
        user = int(user)
        with self._lock, span("serve.topn"):
            self._check_ids("user", np.asarray([user]))
            items = np.arange(self.num_items, dtype=np.int64)
            scores = self._compute_scores(np.full(len(items), user, dtype=np.int64), items)
            if exclude_seen:
                seen = self._seen.get(user)
                if seen:
                    scores = scores.copy()
                    scores[np.fromiter(seen, dtype=np.int64)] = -np.inf
            valid = np.flatnonzero(np.isfinite(scores))
            k = min(k, len(valid))
            top = valid[np.argsort(-scores[valid], kind="stable")[:k]]
            increment("serve.topn.requests")
            return top, scores[top]

    # ------------------------------------------------------------- onboarding
    def _candidate_index(self, side: str) -> Optional[CandidateIndex]:
        """The side's onboarding index, or None on the exact (default) path.

        Built lazily from the current attribute matrix the first time an
        inverted-strategy bundle onboards a node; :meth:`_add_node` keeps it
        in sync afterwards, so later arrivals are discoverable as candidates.
        """
        config = self.model.config
        if getattr(config, "graph_candidate_strategy", "exact") != "inverted":
            return None
        index = self._cand_index[side]
        if index is None:
            pool_size = max(
                int(round(self.count(side) * config.pool_percent / 100.0)),
                config.num_neighbors,
            )
            scan_budget, max_candidates = default_budgets(pool_size)
            index = CandidateIndex(
                self._attr[side] != 0,
                scan_budget=scan_budget,
                max_candidates=max_candidates,
            )
            self._cand_index[side] = index
        return index

    def add_user(self, attributes) -> int:
        """Onboard a brand-new strict-cold-start user from attributes alone."""
        return self._add_node("user", attributes)

    def add_item(self, attributes) -> int:
        """Onboard a brand-new strict-cold-start item from attributes alone."""
        return self._add_node("item", attributes)

    def _add_node(self, side: str, attributes) -> int:
        model = self.model
        with self._lock, span("serve.onboard"):
            row = encode_attribute_row(
                attributes, self.bundle.schema(side), self._attr[side].shape[1]
            )
            # Eq. 6–8 at runtime: the eVAE generates the preference embedding
            # the node never trained.
            pref_row = model.generate_cold_preference(side, row[None])
            # Splice into the attribute graph: proximity against every known
            # node (or, with an inverted-strategy bundle, only against the
            # index's candidates), top-p% pool, neighbourhood from its head.
            index = self._candidate_index(side)
            neighbour_ids, _, _ = splice_neighbours(
                row,
                self._attr[side],
                pool_percent=model.config.pool_percent,
                k=self._neigh[side].shape[1],
                min_pool=model.config.num_neighbors,
                index=index,
            )
            raw_row = model.raw_node_embeddings(
                side, row[None], pref_row, np.zeros(1, dtype=np.int64)
            )
            refined_row = model.refine_node_embeddings(
                side, raw_row, self._raw[side][neighbour_ids][None]
            )

            new_id = self.count(side)
            if index is not None:
                # new_id == index.num_nodes: the index grows in lockstep with
                # the attribute matrix, keeping this arrival discoverable.
                index.add_row(row != 0)
            self._attr[side] = np.vstack([self._attr[side], row[None]])
            self._pref[side] = np.vstack([self._pref[side], pref_row])
            self._neigh[side] = np.vstack([self._neigh[side], neighbour_ids[None]])
            self._raw[side] = np.vstack([self._raw[side], raw_row])
            self._refined[side] = np.vstack([self._refined[side], refined_row])
            self._bias[side] = np.append(self._bias[side], 0.0)
            if side == "user":
                self._seen[new_id] = set()
            # The node set changed: cached (user, item) results may be stale
            # for retrieval purposes, so the result cache is invalidated.
            self._cache.clear()
            increment(f"serve.onboarded.{side}s")
            set_gauge(f"serve.nodes.{side}", float(self.count(side)))
            events.emit(
                "serve.onboard",
                side=side,
                node_id=new_id,
                neighbours=neighbour_ids,
                onboarded=self.onboarded(side),
            )
            return new_id
