"""Parity: vectorised graph construction vs the pre-optimisation reference.

The blockwise pool extraction and the fused proximity builder replaced
per-row / materialise-everything implementations.  These tests pin the
optimised paths to the originals, which live on in ``repro.graphs.parity``
as the oracles and the training suite's micro-benchmark baselines:

* pools and weights from ``_pool_from_proximity`` must match the per-row
  reference **exactly** (the per-row argpartition/argsort calls are the same,
  so nothing may drift — including tie handling);
* ``BlockwiseProximity`` must reproduce ``combined_proximity`` to the last
  few ulps (row-blocked GEMMs may round differently at some shapes);
* the fused build must select the same pools as materialise-then-pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.construction import FixedNeighborGraph, _pool_from_proximity
from repro.graphs.proximity import BlockwiseProximity, combined_proximity
from repro.graphs.parity import build_fused, build_reference, pool_reference, synthetic_graph_inputs


def _random_proximity(rng, n):
    matrix = rng.normal(size=(n, n))
    np.fill_diagonal(matrix, -np.inf)
    return matrix


def _assert_graphs_equal(got, expected, weights_exact=True):
    assert got.num_nodes == expected.num_nodes
    for i in range(expected.num_nodes):
        np.testing.assert_array_equal(got.pools[i], expected.pools[i], err_msg=f"pools[{i}]")
        if weights_exact:
            np.testing.assert_array_equal(got.weights[i], expected.weights[i], err_msg=f"weights[{i}]")
        else:
            np.testing.assert_allclose(got.weights[i], expected.weights[i], rtol=1e-9, err_msg=f"weights[{i}]")


class TestPoolParity:
    @pytest.mark.parametrize("n,pool_size,block_rows", [(60, 7, 16), (123, 30, 50), (41, 40, 512)])
    def test_random_matrices_match_reference_exactly(self, rng, n, pool_size, block_rows):
        proximity = _random_proximity(rng, n)
        got = _pool_from_proximity(proximity, pool_size, block_rows=block_rows)
        _assert_graphs_equal(got, pool_reference(proximity, pool_size))

    def test_tie_heavy_matrix_matches_reference(self, rng):
        # Quantised values create massive ties: argpartition/argsort order among
        # equals is implementation-defined but must agree since both paths run
        # the same per-row kernels.
        proximity = np.round(rng.random((80, 80)) * 4) / 4
        np.fill_diagonal(proximity, -np.inf)
        got = _pool_from_proximity(proximity, 10, block_rows=32)
        _assert_graphs_equal(got, pool_reference(proximity, 10))

    def test_rows_with_nonfinite_entries_fall_back_per_row(self, rng):
        proximity = _random_proximity(rng, 50)
        # Row 3 has fewer finite entries than the pool: the clean fast path
        # cannot apply, and the result must still match the reference filter.
        proximity[3, :45] = -np.inf
        proximity[7, ::2] = np.inf  # +inf entries rank first and are kept
        got = _pool_from_proximity(proximity, 12, block_rows=20)
        _assert_graphs_equal(got, pool_reference(proximity, 12))

    def test_all_rows_nearly_empty(self, rng):
        proximity = np.full((12, 12), -np.inf)
        finite = rng.random((12, 12)) < 0.25
        np.fill_diagonal(finite, False)
        finite[np.flatnonzero(finite.sum(axis=1) == 0), 0] = True  # >=1 finite per row
        finite[np.arange(12) == 0, 1] = True
        proximity[finite] = rng.random(int(finite.sum()))
        np.fill_diagonal(proximity, -np.inf)
        got = _pool_from_proximity(proximity, 5, block_rows=4)
        _assert_graphs_equal(got, pool_reference(proximity, 5))


class TestBlockwiseProximity:
    @pytest.mark.parametrize("use_attribute,use_preference", [(True, True), (True, False), (False, True)])
    def test_materialise_matches_combined(self, use_attribute, use_preference):
        attributes, ratings = synthetic_graph_inputs(n=157, attr_dim=23, num_ratings=40, seed=3)
        ratings[::5] = 0.0  # some nodes with no history
        reference = combined_proximity(
            attributes, ratings if use_preference else None,
            use_attribute=use_attribute, use_preference=use_preference,
        )
        got = BlockwiseProximity(
            attributes, ratings if use_preference else None,
            use_attribute=use_attribute, use_preference=use_preference, block_rows=48,
        ).materialise()
        # Row-blocked GEMMs are not universally bitwise-equal to the full GEMM,
        # so the contract is last-ulps closeness plus an identical -inf diagonal.
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(reference))

    def test_no_history_at_all_zeroes_preference_term(self):
        attributes, _ = synthetic_graph_inputs(n=30, attr_dim=10, num_ratings=8, seed=1)
        ratings = np.zeros((30, 8))
        reference = combined_proximity(attributes, ratings)
        got = BlockwiseProximity(attributes, ratings, block_rows=7).materialise()
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-15)

    def test_constant_attributes_degenerate_range(self):
        # max - min < 1e-12: min_max_normalise maps everything to zero.
        attributes = np.ones((20, 6))
        _, ratings = synthetic_graph_inputs(n=20, attr_dim=6, num_ratings=12, seed=2)
        reference = combined_proximity(attributes, ratings)
        got = BlockwiseProximity(attributes, ratings, block_rows=6).materialise()
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-15)

    def test_flag_validation_matches_combined(self):
        attributes, ratings = synthetic_graph_inputs(n=10, attr_dim=4, num_ratings=6, seed=0)
        with pytest.raises(ValueError):
            BlockwiseProximity(attributes, ratings, use_attribute=False, use_preference=False)
        with pytest.raises(ValueError):
            BlockwiseProximity(attributes, None, use_preference=True)


class TestFusedBuild:
    def test_fused_build_matches_materialised_build(self):
        attributes, ratings = synthetic_graph_inputs(n=220, attr_dim=18, num_ratings=35, seed=5)
        got = build_fused(attributes, ratings, pool_size=15)
        expected = build_reference(attributes, ratings, pool_size=15)
        # Proximity values may differ in the last ulps (blocked GEMM), which can
        # in principle reorder near-ties; at these shapes the selection agrees
        # and weights match to 1e-9.
        _assert_graphs_equal(got, expected, weights_exact=False)


class TestFixedNeighborPadding:
    def test_modular_padding_equals_tile(self, rng):
        matrix = rng.integers(0, 50, size=(50, 4))
        graph = FixedNeighborGraph(matrix=matrix)
        for k in (5, 8, 11):
            expected = np.tile(matrix, (1, -(-k // 4)))[:, :k]
            np.testing.assert_array_equal(graph.neighbours(k), expected)

    def test_within_stored_width_is_a_prefix(self, rng):
        matrix = rng.integers(0, 9, size=(9, 6))
        graph = FixedNeighborGraph(matrix=matrix)
        np.testing.assert_array_equal(graph.neighbours(3), matrix[:, :3])
