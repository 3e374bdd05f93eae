"""The candidate-pool parity harness: approximate vs exact graph construction.

Three contracts:

* the default ``"exact"`` strategy is **bitwise-identical** to the fused
  blockwise build it refactored (zero golden drift);
* the ``"inverted"`` strategy clears the committed score-recall floor on the
  seeded parity sweep, and is deterministic call-to-call;
* the strategy flag plumbs through ``AGNNConfig`` / ``build_graph_from_arrays``
  with validation at both layers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AGNNConfig
from repro.graphs.candidates import CandidateIndex, build_candidate_graph, default_budgets
from repro.graphs.construction import CANDIDATE_STRATEGIES, build_graph_from_arrays
from repro.graphs.parity import (
    DEFAULT_SWEEP,
    assert_overlap_floor,
    build_fused,
    parity_case,
    parity_sweep,
    pool_overlap,
    synthetic_inputs,
)
from repro.graphs.proximity import combined_proximity

pytestmark = pytest.mark.graphs

OVERLAP_FLOOR = 0.95


def _assert_graphs_identical(got, expected):
    assert got.num_nodes == expected.num_nodes
    for i in range(expected.num_nodes):
        np.testing.assert_array_equal(got.pools[i], expected.pools[i], err_msg=f"pools[{i}]")
        np.testing.assert_array_equal(got.weights[i], expected.weights[i], err_msg=f"weights[{i}]")


class TestExactDefaultBitwise:
    def test_exact_strategy_matches_fused_reference_bitwise(self):
        attributes, ratings = synthetic_inputs(180, attr_dim=30, num_ratings=40, seed=7)
        got = build_graph_from_arrays(attributes, ratings, 12)
        _assert_graphs_identical(got, build_fused(attributes, ratings, 12))

    def test_exact_is_the_default_strategy(self):
        attributes, ratings = synthetic_inputs(60, attr_dim=20, num_ratings=15, seed=1)
        default = build_graph_from_arrays(attributes, ratings, 8)
        explicit = build_graph_from_arrays(attributes, ratings, 8, candidate_strategy="exact")
        _assert_graphs_identical(default, explicit)


class TestParitySweep:
    def test_default_sweep_clears_committed_floor(self):
        payload = parity_sweep(floor=OVERLAP_FLOOR)
        assert payload["aggregate"]["ok"], payload["aggregate"]
        assert_overlap_floor(payload)  # must not raise
        assert payload["aggregate"]["cases"] == len(DEFAULT_SWEEP)

    def test_single_case_reports_distributions(self):
        entry = parity_case(n=150, attr_dim=25, num_ratings=30, pool_percent=8.0, seed=3)
        for metric in ("jaccard", "recall", "score_recall"):
            summary = entry[metric]
            assert set(summary) == {"mean", "min", "p10", "p50", "p90"}
            assert 0.0 <= summary["min"] <= summary["mean"] <= 1.0

    def test_assert_overlap_floor_raises_below_bar(self):
        payload = parity_sweep(floor=OVERLAP_FLOOR)
        with pytest.raises(AssertionError, match="overlap below floor"):
            assert_overlap_floor(payload, floor=1.01)

    def test_score_recall_passes_tied_substitutions_and_fails_misses(self):
        # Node 0's exact pool is {1}, approx pool is {2}; with equal scores the
        # substitution passes, with a lower score it fails.
        from repro.graphs.construction import DynamicNeighborGraph

        pools = lambda ids: DynamicNeighborGraph(
            pools=[np.array(p, dtype=np.int64) for p in ids],
            weights=[np.ones(len(p)) for p in ids],
        )
        exact = pools([[1], [0], [0]])
        approx = pools([[2], [0], [0]])
        tied = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.1], [0.5, 0.1, 0.0]])
        worse = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.1], [0.2, 0.1, 0.0]])
        assert pool_overlap(exact, approx, proximity=tied)["score_recall"][0] == 1.0
        assert pool_overlap(exact, approx, proximity=worse)["score_recall"][0] == 0.0


class TestInvertedDeterminism:
    def test_repeated_builds_are_bitwise_identical(self):
        attributes, ratings = synthetic_inputs(220, attr_dim=35, num_ratings=50, seed=11)
        first = build_candidate_graph(attributes, ratings, 14)
        second = build_candidate_graph(attributes, ratings, 14)
        _assert_graphs_identical(first, second)

    def test_pools_are_id_sorted_on_score_ties(self):
        # Identical attribute rows make every candidate score tie: the pool
        # must be the lowest candidate ids, ascending (lexsort contract).
        attributes = np.tile(np.array([[1.0, 0.0, 1.0]]), (12, 1))
        graph = build_candidate_graph(attributes, None, 4, use_preference=False)
        for i in range(12):
            expected = np.array([j for j in range(12) if j != i][:4], dtype=np.int64)
            np.testing.assert_array_equal(graph.pools[i], expected)


class TestCandidateIndex:
    def test_postings_are_id_sorted_and_growable(self):
        features = np.array([[1, 0], [1, 1], [0, 1], [1, 0]], dtype=np.float64)
        index = CandidateIndex(features)
        np.testing.assert_array_equal(index._postings[0], [0, 1, 3])
        np.testing.assert_array_equal(index._postings[1], [1, 2])
        new_id = index.add_row(np.array([0.0, 2.5]))
        assert new_id == 4 and index.num_nodes == 5
        np.testing.assert_array_equal(index._postings[1], [1, 2, 4])

    def test_exclude_and_cap(self):
        features = np.ones((10, 1))
        index = CandidateIndex(features, scan_budget=100, max_candidates=4)
        got = index.candidates_for_features(np.array([0]), exclude=2)
        assert 2 not in got and got.size == 4
        np.testing.assert_array_equal(got, np.sort(got))

    def test_scan_budget_truncates_single_giant_posting(self):
        features = np.ones((50, 1))
        index = CandidateIndex(features, scan_budget=8, max_candidates=100)
        got = index.candidates_for_features(np.array([0]))
        assert got.size <= 8
        np.testing.assert_array_equal(got, np.sort(got))
        # Deterministic: same query, same subsample.
        np.testing.assert_array_equal(got, index.candidates_for_features(np.array([0])))

    def test_row_width_validation(self):
        index = CandidateIndex(np.ones((3, 2)))
        with pytest.raises(ValueError, match="feature row has"):
            index.candidates_for_row(np.ones(3))
        with pytest.raises(ValueError, match="feature row has"):
            index.add_row(np.ones(5))

    def test_budgets_scale_with_pool_not_n(self):
        assert default_budgets(10) == (1024, 256)
        scan, cap = default_budgets(100)
        assert scan >= 16 * 100 and cap >= 4 * 100


class TestStrategyPlumbing:
    def test_unknown_strategy_rejected_at_graph_layer(self):
        attributes, ratings = synthetic_inputs(20, attr_dim=8, num_ratings=10, seed=0)
        with pytest.raises(ValueError, match="unknown candidate strategy"):
            build_graph_from_arrays(attributes, ratings, 5, candidate_strategy="lsh")

    def test_unknown_strategy_rejected_at_config_layer(self):
        with pytest.raises(ValueError, match="graph_candidate_strategy"):
            AGNNConfig(graph_candidate_strategy="annoy")

    def test_config_default_is_exact(self):
        assert AGNNConfig().graph_candidate_strategy == "exact"
        assert CANDIDATE_STRATEGIES == ("exact", "inverted")

    def test_inverted_strategy_routes_to_candidate_builder(self):
        attributes, ratings = synthetic_inputs(90, attr_dim=25, num_ratings=20, seed=5)
        via_flag = build_graph_from_arrays(
            attributes, ratings, 9, candidate_strategy="inverted"
        )
        direct = build_candidate_graph(attributes, ratings, 9)
        _assert_graphs_identical(via_flag, direct)

    def test_model_level_flag_changes_built_graph(self, ics_task):
        # End-to-end: an AGNN configured with "inverted" builds pools whose
        # exact-score profile matches the exact strategy's (same model, same
        # task) to the committed floor.
        from repro.core.model import AGNN

        task = ics_task
        exact_model = AGNN(AGNNConfig(embedding_dim=6))
        inverted_model = AGNN(
            AGNNConfig(embedding_dim=6, graph_candidate_strategy="inverted")
        )
        exact_graph = exact_model._build_graph(task, "item")
        inverted_graph = inverted_model._build_graph(task, "item")
        assert inverted_graph.num_nodes == exact_graph.num_nodes
        matrix = task.train_rating_matrix()
        proximity = combined_proximity(task.dataset.item_attributes, matrix.T)
        overlap = pool_overlap(exact_graph, inverted_graph, proximity=proximity)
        assert overlap["score_recall"].mean() >= OVERLAP_FLOOR
