"""The full crank: stream → refresh → gate → publish → (optional) hot swap."""

import numpy as np
import pytest

from repro.live import GateConfig, run_refresh, simulate_stream
from repro.telemetry import events
from repro.serving import BatchingEngine, InferenceEngine
from repro.telemetry import snapshot

pytestmark = pytest.mark.live


class TestSimulateStream:
    def test_prefix_consistent_id_space(self, tiny_movielens, live_split):
        base, stream = live_split
        assert base.num_users + stream.new_user_attributes.shape[0] == (
            tiny_movielens.num_users
        )
        assert base.num_items + stream.new_item_attributes.shape[0] == (
            tiny_movielens.num_items
        )
        np.testing.assert_array_equal(
            base.user_attributes, tiny_movielens.user_attributes[: base.num_users]
        )
        np.testing.assert_array_equal(
            stream.new_item_attributes, tiny_movielens.item_attributes[base.num_items :]
        )

    def test_stream_ids_within_extended_space(self, tiny_movielens, live_split):
        _, stream = live_split
        assert len(stream.ratings) > 0
        assert stream.users.max() < tiny_movielens.num_users
        assert stream.items.max() < tiny_movielens.num_items

    def test_deterministic(self, tiny_movielens, live_split):
        base, stream = live_split
        base2, stream2 = simulate_stream(tiny_movielens, seed=0)
        assert base2.num_users == base.num_users
        np.testing.assert_array_equal(stream2.users, stream.users)
        np.testing.assert_array_equal(stream2.ratings, stream.ratings)

    def test_describe_mentions_arrivals(self, live_split):
        _, stream = live_split
        text = stream.describe()
        assert "new users" in text and "new items" in text


class TestAcceptedRefresh:
    def test_publishes_next_generation(self, fresh_store, live_split):
        _, stream = live_split
        result = run_refresh(
            fresh_store,
            stream.interactions,
            new_users=stream.new_user_attributes,
            new_items=stream.new_item_attributes,
        )
        assert result.accepted
        assert result.parent_version == 1
        assert result.version == 2
        assert result.epochs > 0
        assert not result.swapped, "no target was attached"
        assert fresh_store.latest_version == 2
        assert fresh_store.entry(2)["parent"] == 1
        assert "eval_rmse" in fresh_store.entry(2)["metrics"]

    def test_swaps_onto_target(self, fresh_store, live_split):
        _, stream = live_split
        engine = InferenceEngine(fresh_store.load(1), cache_size=0)
        with BatchingEngine(engine) as batching:
            result = run_refresh(
                fresh_store,
                stream.interactions,
                new_users=stream.new_user_attributes,
                new_items=stream.new_item_attributes,
                target=batching,
            )
            assert result.accepted and result.swapped
            assert result.swap_report is not None
            assert batching.engine.bundle.version == 2
            assert batching.engine.bundle.parent_version == 1
            # the new generation serves the extended catalogue immediately
            assert batching.engine.num_users == fresh_store.load(2).user_attributes.shape[0]


class TestRejectedRefresh:
    def test_old_generation_keeps_serving(self, fresh_store, live_split):
        _, stream = live_split
        engine = InferenceEngine(fresh_store.load(1), cache_size=0)
        with BatchingEngine(engine) as batching:
            result = run_refresh(
                fresh_store,
                stream.interactions,
                new_users=stream.new_user_attributes,
                new_items=stream.new_item_attributes,
                gate_config=GateConfig(max_rmse_ratio=1e-6),
                target=batching,
            )
            assert not result.accepted
            assert result.version is None
            assert not result.swapped
            assert result.reasons, "a rejection must carry its reasons"
            assert batching.engine is engine, "rejected refresh must not touch serving"
        assert fresh_store.latest_version == 1, "rejected refresh must not publish"
        assert snapshot()["counters"].get("serve.swap.rejected") == 1
        rejected = events.get_event_log().events(kind="live.refresh_rejected")
        assert rejected, "a rejected refresh must leave an audit event"
