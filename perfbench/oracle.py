"""Correctness oracle: an in-process engine on the same bundle that replays
the run's onboarding log in assigned-id order.

Every served value the benchmark samples is compared *bitwise* with what
this oracle computes.  A score's last bits depend on the batch it was
computed in (the BLAS kernel the prediction head's last layer takes varies
with the batch's row count and the row's place in it), and the server
computes each pair inside whatever batch caching and coalescing gave it.  So
a served score is right when it is one of the exact values the shipped head
gives that pair in some batch the workload can form; each such answer that
differs from ``predict_batch`` is counted apart (``composition_variants``).

The replay also times the onboarding steps through their public functions
(eVAE, splice, gated-GNN refine), which is where the traced run gets
``model.evae_ms``, ``onboarding.splice_ms`` and friends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .proxies import TimedModel, snapshot


class TopNSample:
    """A served top-N answer and the catalogue states it may have seen:
    ``lo``..``hi`` onboarded items (the item broadcasts that had finished
    when it was sent, and those that had started when it returned)."""

    __slots__ = ("user", "k", "items", "scores", "lo", "hi", "matched")

    def __init__(self, user: int, k: int, items: List[int], scores: List[float],
                 lo: int, hi: int) -> None:
        self.user, self.k, self.items, self.scores = user, k, items, scores
        self.lo, self.hi = lo, hi
        self.matched = False


class Oracle:
    def __init__(self, bundle_dir: Path) -> None:
        from repro.serving import InferenceEngine, load_bundle

        bundle = load_bundle(bundle_dir)
        self.engine = InferenceEngine(bundle, cache_size=0)
        self.model = TimedModel(self.engine.model)
        self.engine.model = self.model
        self.config = bundle.model.config
        self.base = {side: self.engine.count(side) for side in ("user", "item")}
        # Attribute rows as the serving engine holds them, grown in place for
        # the splice replays (capacity doubles, so growth is amortised O(1)).
        self._attrs = {side: bundle.attributes(side).copy() for side in ("user", "item")}
        self._rows = dict(self.base)
        self.timings: Dict[str, List[float]] = defaultdict(list)
        self.id_mismatches = 0
        #: right score answers that differ from ``predict_batch`` in their last bits
        self.composition_variants = 0
        #: largest |served - predict_batch| among the score answers
        self.max_score_error = 0.0

    # ------------------------------------------------------------- onboarding
    def replay(self, side: str, log: Dict[int, Sequence[float]], upto: int = -1) -> bool:
        """Onboard the logged rows of ``side`` in id order (the next ``upto``,
        or all), counting in ``id_mismatches`` every id the replay assigns
        differently.  Returns False at a gap in the served ids."""
        from repro.serving import splice_neighbours

        add = self.engine.add_user if side == "user" else self.engine.add_item
        done = self.engine.onboarded(side)
        stop = len(log) if upto < 0 else min(done + upto, len(log))
        for offset in range(done, stop):
            served_id = self.base[side] + offset
            row = log.get(served_id)
            if row is None:  # ids must be contiguous: a gap is a wrong answer
                self.id_mismatches += stop - offset
                return False
            row = np.asarray(row, dtype=np.float64)
            n = self._rows[side]
            if n == len(self._attrs[side]):
                self._attrs[side] = np.concatenate([self._attrs[side], np.zeros_like(self._attrs[side])])
            started = time.perf_counter()
            splice_neighbours(row, self._attrs[side][:n], pool_percent=self.config.pool_percent,
                              k=self.config.num_neighbors, min_pool=self.config.num_neighbors)
            self.timings["splice"].append(time.perf_counter() - started)
            started = time.perf_counter()
            new_id = add(row)
            self.timings["add"].append(time.perf_counter() - started)
            self._attrs[side][n] = row
            self._rows[side] = n + 1
            self.id_mismatches += int(new_id != served_id)
        return True

    # ---------------------------------------------------------------- reading
    def check_scores(self, samples: Sequence[Tuple[Sequence[int], Sequence[int], Sequence[float]]],
                     max_rows: int) -> int:
        """Sampled score answers vs ``predict_batch``, bitwise; a differing
        pair must equal one of :meth:`batch_values`.  A pair's score does not
        depend on later onboarding, so any state will do.  ``max_rows`` is the
        most pairs the server can score in one batch (all requests in flight).
        Returns the number of wrong answers."""
        differing = []
        with self._head_calls("score"):
            for users, items, scores in samples:
                expected = self.engine.predict_batch(users, items)
                served = np.asarray(scores, dtype=np.float64)
                if not np.array_equal(expected, served):
                    differing.append((users, items, served, expected))
        wrong = 0
        for users, items, served, expected in differing:
            self.max_score_error = max(self.max_score_error, float(np.max(np.abs(expected - served))))
            pairs = np.flatnonzero(expected != served)
            if all(served[j] in self.batch_values(users[j], items[j], max_rows) for j in pairs):
                self.composition_variants += 1
            else:
                wrong += 1
        return wrong

    def batch_values(self, user: int, item: int, max_rows: int) -> set:
        """Every value the head gives the pair ``(user, item)`` at each place
        of a batch of 1..``max_rows`` rows.  Rows do not mix in the head, so a
        batch of copies of the pair shows every place at once."""
        values: set = set()
        for rows in range(1, max_rows + 1):
            values.update(self.engine.predict_batch([user] * rows, [item] * rows,
                                                    batch_size=max_rows).tolist())
        return values

    @contextmanager
    def _head_calls(self, op: str):
        """File the head calls made inside the block under ``op``."""
        samples = self.model.samples
        first = len(samples["pairwise_scores"])
        yield
        self.timings[f"head_{op}"].extend(samples["pairwise_scores"][first:])
        self.timings[f"head_rows_{op}"].extend(samples["head_rows"][first:])

    def _topn_matches(self, sample: TopNSample) -> bool:
        with self._head_calls("topn"):
            items, scores = self.engine.top_n(sample.user, k=sample.k)
        return items.tolist() == sample.items and np.array_equal(
            scores, np.asarray(sample.scores, dtype=np.float64))

    def check_topn(self, samples: Sequence[TopNSample], item_log: Dict[int, Sequence[float]]) -> int:
        """Replay onboarded items one at a time; each sample must equal the
        oracle's ``top_n`` at one of the catalogue states it may have seen.
        Users must be replayed first (user and item sides are independent);
        items left after the last sample are replayed by the caller."""
        pending = list(samples)
        state = self.engine.onboarded("item")
        while True:
            for sample in pending:
                if sample.lo <= state <= sample.hi and self._topn_matches(sample):
                    sample.matched = True
            pending = [s for s in pending if not s.matched]
            if not pending or state >= len(item_log):
                break
            if not self.replay("item", item_log, upto=1):
                break
            state += 1
        return len(pending)

    def layer_timings(self) -> Dict[str, List[float]]:
        """Replay timings plus the model calls the replay made."""
        out = dict(self.timings)
        out.update(snapshot(self.model))
        return out
