"""Pool-overlap parity: how far the approximate builder drifts from exact.

The sublinear candidate-pool build (:mod:`repro.graphs.candidates`) is only
safe to ship because this harness quantifies its drift: for seeded synthetic
inputs sweeping node count, attribute sparsity and pool size, it builds the
exact and the approximate graph on identical arrays and measures, per node,

* **score recall** — position-wise comparison of *exact* proximity scores:
  the approximate pool is correct at rank ``j`` when its ``j``-th best exact
  score is at least the exact pool's ``j``-th best.  This is the metric the
  overlap floor is asserted on: a genuinely missed higher-proximity
  neighbour fails it, while an equally-proximal substitute passes.  The
  distinction matters because the exact builder's own tie-breaking is
  arbitrary (``argpartition`` order among equal scores) — raw id overlap
  against an arbitrary tie choice measures tie noise, not drift;
* **recall@pool** — raw id-set recall of the exact pool (reported for
  debugging; bounded above by the tie-break ceiling, not gated);
* **Jaccard** — symmetric id overlap, penalising spurious extras too.

:func:`parity_sweep` runs a grid of such cases and aggregates; the committed
floor lives in ``BENCH_graphs.json`` (``results.overlap``) and is enforced
fresh by ``tests/graphs/test_candidate_parity.py`` and against the committed
file by ``benchmarks/test_graph_baseline.py``.

The module also keeps the pre-optimisation graph builders
(:func:`pool_reference`, :func:`build_reference`) with the fused build and
their input generator: the oracles the construction parity tests compare
against and the baselines of the training suite's graph micro-benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .construction import DynamicNeighborGraph, _extend_pools_from_rows, build_graph_from_arrays
from .proximity import BlockwiseProximity, combined_proximity

__all__ = [
    "DEFAULT_SWEEP",
    "synthetic_inputs",
    "pool_overlap",
    "summarise_overlap",
    "parity_case",
    "parity_sweep",
    "assert_overlap_floor",
    "render_parity",
    "pool_reference",
    "build_reference",
    "build_fused",
    "synthetic_graph_inputs",
]

#: The default sweep grid: node counts small enough that the exact O(n²)
#: oracle is cheap, sparsities from near-degenerate to dense, pools from tiny
#: to the paper's 5%.  Every case is seeded — the sweep is deterministic.
DEFAULT_SWEEP: Tuple[Dict[str, Any], ...] = (
    dict(n=200, attr_dim=40, num_ratings=60, attr_density=0.08, rating_density=0.03,
         pool_percent=5.0, min_pool=10, seed=0),
    dict(n=200, attr_dim=40, num_ratings=60, attr_density=0.25, rating_density=0.05,
         pool_percent=10.0, min_pool=10, seed=1),
    dict(n=350, attr_dim=60, num_ratings=80, attr_density=0.05, rating_density=0.02,
         pool_percent=5.0, min_pool=10, seed=2),
    dict(n=350, attr_dim=25, num_ratings=50, attr_density=0.15, rating_density=0.04,
         pool_percent=8.0, min_pool=12, seed=3),
    dict(n=500, attr_dim=60, num_ratings=100, attr_density=0.08, rating_density=0.02,
         pool_percent=5.0, min_pool=10, seed=4),
    dict(n=500, attr_dim=80, num_ratings=60, attr_density=0.03, rating_density=0.01,
         pool_percent=4.0, min_pool=10, seed=5),
)


def synthetic_inputs(
    n: int,
    attr_dim: int = 60,
    num_ratings: int = 100,
    attr_density: float = 0.08,
    rating_density: float = 0.02,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded multi-hot attributes + sparse integer rating vectors.

    Every node gets at least one active attribute (an all-zero row has no
    blocking signal *and* no exact proximity signal — both builders degrade
    to arbitrary pools, which would measure noise, not drift).
    """
    rng = np.random.default_rng(seed)
    attributes = (rng.random((n, attr_dim)) < attr_density).astype(np.float64)
    empty = np.flatnonzero(~attributes.any(axis=1))
    attributes[empty, rng.integers(0, attr_dim, size=empty.size)] = 1.0
    ratings = np.where(
        rng.random((n, num_ratings)) < rating_density,
        rng.integers(1, 6, (n, num_ratings)),
        0,
    ).astype(np.float64)
    return attributes, ratings


def pool_overlap(
    exact: DynamicNeighborGraph,
    approx: DynamicNeighborGraph,
    proximity: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Per-node overlap of two graphs' candidate pools.

    Returns ``{"jaccard": (n,), "recall": (n,)}`` — recall is measured
    against the *exact* pool (an empty exact pool counts as recall 1).
    With ``proximity`` (the exact combined-proximity matrix) the result also
    carries ``"score_recall"``: at each pool rank ``j``, the approximate
    pool's ``j``-th best exact score must reach the exact pool's ``j``-th
    best (small float tolerance).  Tied-score substitutions — where the
    exact builder's own selection among equals is arbitrary — pass, so this
    is the drift measure the overlap floor gates on.
    """
    if exact.num_nodes != approx.num_nodes:
        raise ValueError(
            f"graphs disagree on node count: {exact.num_nodes} vs {approx.num_nodes}"
        )
    n = exact.num_nodes
    jaccard = np.empty(n)
    recall = np.empty(n)
    score_recall = np.empty(n) if proximity is not None else None
    for i in range(n):
        e = set(exact.pools[i].tolist())
        a = set(approx.pools[i].tolist())
        union = len(e | a)
        inter = len(e & a)
        jaccard[i] = inter / union if union else 1.0
        recall[i] = inter / len(e) if e else 1.0
        if score_recall is not None:
            exact_scores = np.sort(proximity[i, exact.pools[i]])[::-1]
            approx_scores = np.sort(proximity[i, approx.pools[i]])[::-1]
            if approx_scores.size < exact_scores.size:
                approx_scores = np.concatenate(
                    [approx_scores, np.full(exact_scores.size - approx_scores.size, -np.inf)]
                )
            approx_scores = approx_scores[: exact_scores.size]
            score_recall[i] = (
                float(np.mean(approx_scores >= exact_scores - 1e-9))
                if exact_scores.size
                else 1.0
            )
    out = {"jaccard": jaccard, "recall": recall}
    if score_recall is not None:
        out["score_recall"] = score_recall
    return out


def summarise_overlap(values: np.ndarray) -> Dict[str, float]:
    """Distribution summary of a per-node overlap array."""
    return {
        "mean": float(values.mean()),
        "min": float(values.min()),
        "p10": float(np.percentile(values, 10)),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
    }


def parity_case(
    n: int,
    attr_dim: int = 60,
    num_ratings: int = 100,
    attr_density: float = 0.08,
    rating_density: float = 0.02,
    pool_percent: float = 5.0,
    min_pool: int = 10,
    seed: int = 0,
) -> Dict[str, Any]:
    """One sweep cell: build exact + approximate pools, measure overlap."""
    attributes, ratings = synthetic_inputs(
        n, attr_dim, num_ratings, attr_density, rating_density, seed
    )
    pool_size = int(np.clip(max(round(n * pool_percent / 100.0), min_pool), 1, n - 1))
    exact = build_graph_from_arrays(attributes, ratings, pool_size)
    approx = build_graph_from_arrays(
        attributes, ratings, pool_size, candidate_strategy="inverted"
    )
    # Sweep n is small, so the dense oracle matrix is cheap — it feeds the
    # tie-aware score-recall metric the floor is gated on.
    proximity = combined_proximity(attributes, ratings)
    overlap = pool_overlap(exact, approx, proximity=proximity)
    approx_sizes = np.fromiter((p.size for p in approx.pools), dtype=np.int64)
    return {
        "params": {
            "n": n, "attr_dim": attr_dim, "num_ratings": num_ratings,
            "attr_density": attr_density, "rating_density": rating_density,
            "pool_percent": pool_percent, "min_pool": min_pool, "seed": seed,
        },
        "pool_size": pool_size,
        "mean_approx_pool_size": float(approx_sizes.mean()),
        "jaccard": summarise_overlap(overlap["jaccard"]),
        "recall": summarise_overlap(overlap["recall"]),
        "score_recall": summarise_overlap(overlap["score_recall"]),
    }


def parity_sweep(
    cases: Optional[Iterable[Dict[str, Any]]] = None,
    floor: float = 0.95,
) -> Dict[str, Any]:
    """Run the sweep grid; aggregate means and judge against the floor.

    ``ok`` requires every case's *mean* score recall to clear ``floor`` —
    per-node minima and the raw id-overlap metrics are reported
    (distribution tails and tie noise matter for debugging) but not gated,
    since a single adversarial node — or the exact builder's arbitrary
    selection among tied scores — must not fail the build.
    """
    results: List[Dict[str, Any]] = [
        parity_case(**case) for case in (DEFAULT_SWEEP if cases is None else cases)
    ]
    if not results:
        raise ValueError("parity sweep needs at least one case")
    case_scores = np.array([entry["score_recall"]["mean"] for entry in results])
    case_recalls = np.array([entry["recall"]["mean"] for entry in results])
    case_jaccards = np.array([entry["jaccard"]["mean"] for entry in results])
    aggregate = {
        "cases": len(results),
        "mean_score_recall": float(case_scores.mean()),
        "min_case_score_recall": float(case_scores.min()),
        "mean_recall": float(case_recalls.mean()),
        "min_case_recall": float(case_recalls.min()),
        "mean_jaccard": float(case_jaccards.mean()),
        "min_case_jaccard": float(case_jaccards.min()),
        "floor": float(floor),
        "ok": bool(case_scores.min() >= floor),
    }
    return {"schema_version": 1, "cases": results, "aggregate": aggregate}


def assert_overlap_floor(payload: Dict[str, Any], floor: Optional[float] = None) -> None:
    """Raise ``AssertionError`` when a sweep payload misses the overlap floor."""
    aggregate = payload["aggregate"]
    bar = aggregate["floor"] if floor is None else floor
    if aggregate["min_case_score_recall"] < bar:
        offenders = [
            f"{entry['params']} -> score recall {entry['score_recall']['mean']:.3f}"
            for entry in payload["cases"]
            if entry["score_recall"]["mean"] < bar
        ]
        raise AssertionError(
            f"candidate-pool overlap below floor {bar}: " + "; ".join(offenders)
        )


def render_parity(payload: Dict[str, Any]) -> str:
    """Human-readable sweep summary."""
    aggregate = payload["aggregate"]
    lines = [
        f"parity sweep over {aggregate['cases']} cases: "
        f"mean score recall {aggregate['mean_score_recall']:.3f} "
        f"(worst case {aggregate['min_case_score_recall']:.3f}), "
        f"mean id recall {aggregate['mean_recall']:.3f}, "
        f"mean jaccard {aggregate['mean_jaccard']:.3f} "
        f"[floor {aggregate['floor']:.2f}: {'ok' if aggregate['ok'] else 'MISSED'}]"
    ]
    for entry in payload["cases"]:
        p = entry["params"]
        lines.append(
            f"  n={p['n']} attr_density={p['attr_density']} pool={entry['pool_size']}: "
            f"score recall mean {entry['score_recall']['mean']:.3f} "
            f"p10 {entry['score_recall']['p10']:.3f}, "
            f"id recall mean {entry['recall']['mean']:.3f}, "
            f"jaccard mean {entry['jaccard']['mean']:.3f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Reference (pre-optimisation) graph construction: the parity-test oracles
# of tests/graphs/test_pool_parity.py and the baselines of the training
# suite's graph micro-benchmark.
# --------------------------------------------------------------------------

def pool_reference(proximity: np.ndarray, pool_size: int) -> DynamicNeighborGraph:
    """Per-row top-``pool_size`` extraction, exactly as before vectorisation."""
    n = proximity.shape[0]
    pool_size = int(np.clip(pool_size, 1, n - 1))
    pools: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    for i in range(n):
        row = proximity[i]
        top = np.argpartition(-row, pool_size - 1)[:pool_size]
        top = top[np.argsort(-row[top])]
        w = row[top]
        finite = np.isfinite(w)
        top, w = top[finite], w[finite]
        if len(top) == 0:  # pathological: keep the single best finite entry
            finite_all = np.flatnonzero(np.isfinite(row))
            top = finite_all[np.argsort(-row[finite_all])][:1]
            w = row[top]
        w = w - w.min() + 1e-6  # strictly positive sampling weights
        pools.append(top.astype(np.int64))
        weights.append(w)
    return DynamicNeighborGraph(pools=pools, weights=weights)


def build_reference(
    attributes: np.ndarray, rating_vectors: np.ndarray, pool_size: int
) -> DynamicNeighborGraph:
    """Materialise the full proximity matrix, then pool — the pre-fusion build."""
    proximity = combined_proximity(attributes, rating_vectors)
    return pool_reference(proximity, pool_size)


def build_fused(
    attributes: np.ndarray, rating_vectors: np.ndarray, pool_size: int
) -> DynamicNeighborGraph:
    """The fused blockwise build (what :func:`build_attribute_graph` runs)."""
    builder = BlockwiseProximity(attributes, rating_vectors)
    pools: List[np.ndarray] = []
    weights: List[np.ndarray] = []
    for start in range(0, builder.num_nodes, builder.block_rows):
        block = builder.block(start, start + builder.block_rows)
        _extend_pools_from_rows(block, pool_size, pools, weights)
    return DynamicNeighborGraph(pools=pools, weights=weights)


def synthetic_graph_inputs(
    n: int = 2000, attr_dim: int = 60, num_ratings: int = 300, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded multi-hot attributes (~8% density) + sparse ratings (~2%)."""
    rng = np.random.default_rng(seed)
    attributes = (rng.random((n, attr_dim)) < 0.08).astype(np.float64)
    ratings = np.where(
        rng.random((n, num_ratings)) < 0.02, rng.integers(1, 6, (n, num_ratings)), 0
    ).astype(np.float64)
    return attributes, ratings
