"""The engine's LRU score cache over random pair streams: bitwise answers, bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import InferenceEngine

pytestmark = pytest.mark.serving

# A small id range (12 x 16 = 192 pairs) so streams revisit pairs and
# overflow the smaller caches.
pairs = st.tuples(st.integers(0, 11), st.integers(0, 15))
requests = st.lists(pairs, min_size=1, max_size=24)


def _score(engine, request):
    users, items = zip(*request)
    return engine.score(list(users), list(items))


@given(stream=st.lists(requests, min_size=1, max_size=12), capacity=st.sampled_from([1, 5, 64, 1000]))
@settings(max_examples=60, deadline=None)
def test_scores_are_bitwise_the_uncached_engines(bundle, stream, capacity):
    cached = InferenceEngine(bundle, cache_size=capacity)
    uncached = InferenceEngine(bundle, cache_size=0)
    seen = set()
    for request in stream:
        np.testing.assert_array_equal(_score(cached, request), _score(uncached, request))
        seen.update(request)
        assert cached.stats()["cache_entries"] == min(len(seen), capacity)
