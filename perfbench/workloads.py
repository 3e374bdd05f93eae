"""The workloads: ``rerank`` and ``coldstart``, closed loop over HTTP against
a pool-backed server.

Each workload returns a :class:`Result`: raw latency samples per operation,
the phase accounting, what the oracle found wrong, and (traced runs) the
layer samples.  ``run.py`` turns that into metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .catalogue import arrivals
from .common import Phase, pss_mb
from .http_stack import Client, ServerProcess, start_server
from .oracle import Oracle, TopNSample

#: closed-loop connections of the HTTP workloads (one generator process)
CONNECTIONS = 2
RERANK_CANDIDATES = 100
#: every score request has RERANK_CANDIDATES pairs, so no batch the server
#: scores holds more pairs than this
MAX_FUSED_PAIRS = CONNECTIONS * RERANK_CANDIDATES


@dataclass
class Result:
    latencies: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    phases: List[Phase] = field(default_factory=list)
    measured_ops: int = 0
    measured_s: float = 0.0
    start_s: float = 0.0  # serving stack construction, part of setup_s
    memory_mb: float = 0.0
    mapped_mb: float = 0.0
    wrong: int = 0
    notes: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, Any] = field(default_factory=dict)


def workers_for_host() -> int:
    """``nproc``-many pool workers, as a default deployment would run, but at
    least two: ``repro serve --workers 1`` serves in-process without a pool,
    which the traced server (always a pool) could not mirror."""
    return max(len(os.sched_getaffinity(0)), 2)


# ---------------------------------------------------------------- HTTP loop
class _Loop:
    """Closed loop over ``CONNECTIONS`` keep-alive connections: each sends
    its next request when the previous reply is in.  ``call`` sends one
    request and does the phase accounting; a loop built with a result also
    records latencies, and a measured one counts operations and keeps the
    round trips (by request id) for attribution."""

    def __init__(self, server: ServerProcess, phase: Phase, result: Optional[Result],
                 measured: bool = True) -> None:
        self.server = server
        self.phase = phase
        self.result = result
        self.measured = measured
        self.lock = threading.Lock()
        self.rtts: List[Tuple[str, str, float]] = []  # (kind, request id, seconds)

    def call(self, client: Client, kind: str, path: str, body: dict) -> Optional[dict]:
        status, payload, seconds, request_id = client.request("POST", path, json.dumps(body).encode())
        ok = status in (200, 201)
        with self.lock:
            self.phase.sent += 1
            if ok:
                self.phase.succeeded += 1
            elif status == 429:
                self.phase.shed += 1
            else:
                self.phase.failed += 1
            if self.result is not None:
                self.result.latencies[kind].append(seconds)
            if self.measured and self.result is not None:
                self.result.measured_ops += 1
                self.rtts.append((kind, request_id, seconds))
        return payload if ok else None

    def run(self, body: Callable[[int, Client, Callable[[], bool]], None], seconds: float) -> float:
        deadline = time.perf_counter() + seconds
        errors: List[BaseException] = []

        def worker(index: int) -> None:
            client = Client(self.server.host, self.server.port)
            try:
                body(index, client, lambda: time.perf_counter() < deadline)
            except BaseException as exc:  # surfaced below, never swallowed
                errors.append(exc)
            finally:
                client.close()

        started = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return time.perf_counter() - started


def _rerank_stream(seed: int, index: int, users: np.ndarray, num_items: int):
    rng = np.random.default_rng([seed, index])
    while True:
        user = int(users[rng.integers(len(users))])
        items = rng.choice(num_items, RERANK_CANDIDATES, replace=False).tolist()
        yield {"users": [user] * RERANK_CANDIDATES, "items": items}


def _probe(server: ServerProcess, requests: List[Tuple[str, str, dict]], phase: Phase,
           result: Result) -> List[Tuple[str, dict, dict]]:
    """Send ``(kind, path, body)`` requests over the loop's connections, each
    as soon as its connection is free; returns (path, request, reply)."""
    loop = _Loop(server, phase, result, measured=False)
    pending = iter(requests)
    lock = threading.Lock()
    out: List[Tuple[str, dict, dict]] = []

    def session(index: int, client: Client, running: Callable[[], bool]) -> None:
        while True:
            with lock:
                request = next(pending, None)
            if request is None:
                return
            kind, path, body = request
            reply = loop.call(client, kind, path, body)
            if reply is not None:
                out.append((path, body, reply))

    loop.run(session, 3600.0)
    return out


def _window(before: Dict[str, Any], after: Dict[str, Any]) -> Tuple[Dict[str, int], Dict[str, Any]]:
    """Worker counters and histograms recorded between two marks: counter
    and histogram-total deltas, and the samples the later window holds
    beyond the earlier one (a multiset difference, summed over workers)."""
    counters: Dict[str, int] = defaultdict(int)
    hists: Dict[str, Any] = defaultdict(lambda: {"samples": [], "total": 0.0})
    for old, new in zip(before["workers"], after["workers"]):
        for name, value in new["counters"].items():
            counters[name] += value - old["counters"].get(name, 0)
        for name, state in new["histograms"].items():
            prior = old["histograms"].get(name, {"samples": [], "total_s": 0.0})
            fresh = Counter(state["samples"]) - Counter(prior["samples"])
            hists[name]["samples"].extend(fresh.elements())
            hists[name]["total"] += state["total_s"] - prior["total_s"]
    return counters, hists


def _server_layers(marks: List[Dict[str, Any]], rtts: List[Tuple[str, str, float]]) -> Dict[str, Any]:
    """Raw per-layer samples of a traced HTTP run's measured phase (between
    its two marks): proxy calls matched to round trips by request id, plus
    the workers' own spans and counters."""
    before, after = marks
    proxy = {name: calls[len(before["proxy"].get(name, [])):]
             for name, calls in after["proxy"].items()}
    calls = {request_id: seconds for name in ("score", "top_n", "add_user", "add_item")
             for request_id, seconds in proxy.get(name, [])}
    self_times: Dict[str, List[float]] = defaultdict(list)
    backend: Dict[str, List[float]] = defaultdict(list)
    for kind, request_id, rtt in rtts:
        if request_id in calls:
            self_times[kind].append(rtt - calls[request_id])
            backend[kind].append(calls[request_id])
    counters, hists = _window(before, after)

    def samples(name: str) -> List[float]:
        return hists[name]["samples"] if name in hists else []

    def total(name: str) -> float:
        return hists[name]["total"] if name in hists else 0.0

    per_worker = [new["counters"].get("serve.batch.requests", 0) - old["counters"].get("serve.batch.requests", 0)
                  for old, new in zip(before["workers"], after["workers"])]
    return {
        "server_self": self_times,
        "backend": backend,
        "queue_wait": samples("serve.batch.wait"),
        "tick": samples("span.serve.batch.tick"),
        "engine_score": samples("span.serve.batch.tick/serve.score"),
        "engine_topn": samples("span.serve.batch.tick/serve.topn"),
        "engine_onboard": samples("span.serve.batch.tick/serve.onboard"),
        "tick_self_total": total("span.serve.batch.tick") - sum(
            total(f"span.serve.batch.tick/serve.{op}") for op in ("score", "topn", "onboard")),
        "broadcast": [seconds for name in ("add_user", "add_item") for _, seconds in proxy.get(name, [])],
        "ticks": counters["serve.batch.ticks"],
        "tick_requests": counters["serve.batch.requests"],
        "pairs": total("serve.batch.size"),
        "shed": counters["serve.shed"],
        "fallbacks": counters["serve.batch.fallbacks"],
        "cache_hits": counters["serve.cache.hits"],
        "cache_misses": counters["serve.cache.misses"],
        "worker_share_max": max(per_worker) / sum(per_worker) if sum(per_worker) else 0.0,
        "respawns": after["pool"]["respawns"] - before["pool"]["respawns"],
    }


def _finish_server(server: ServerProcess, result: Result, bundle_dir: Path) -> None:
    pids = server.pids()
    result.memory_mb = pss_mb(pids)
    result.mapped_mb = pss_mb(pids, needle=str(bundle_dir / "mapped"))


def run_rerank(bundle_dir: Path, seed: int, seconds: float, num_users: int, num_items: int,
               traced: bool, work: Path, smoke: bool) -> Result:
    """POST /score, one user x 100 distinct candidates, 2 keep-alive
    connections closed loop.  Strict-cold users are onboarded first."""
    result = Result()
    cold_users = 8 if smoke else 128
    dump_path = work / "trace-rerank.json"
    started = time.perf_counter()
    server = start_server(bundle_dir, workers_for_host(), traced=traced, dump=dump_path)
    result.start_s = time.perf_counter() - started
    user_log: Dict[int, List[float]] = {}
    try:
        onboard = Phase("onboard-probe")
        result.phases.append(onboard)
        requests = [("onboard", "/users", {"attributes": row.tolist()})
                    for row in arrivals(seed, "user", cold_users)]
        for _, body, reply in _probe(server, requests, onboard, result):
            user_log[int(reply["user"])] = body["attributes"]
        users = np.concatenate([np.arange(num_users), np.array(sorted(user_log), dtype=np.int64)])
        # One rerank in five is for a strict-cold (just onboarded) user.
        weights = np.where(users >= num_users, 0.2 / max(len(user_log), 1), 0.8 / num_users)
        users = np.random.default_rng(seed).choice(users, 4096, p=weights / weights.sum())
        samples: List[Tuple[List[int], List[int], List[float]]] = []

        def session(index: int, client: Client, running: Callable[[], bool]) -> None:
            stream = _rerank_stream(seed, index, users, num_items)
            for n in itertools.count():
                if not running():
                    return
                body = next(stream)
                reply = loop.call(client, "score", "/score", body)
                if reply is not None and n % 16 == 0:
                    samples.append((body["users"], body["items"], reply["scores"]))

        warm = Phase("warmup")
        result.phases.append(warm)
        loop = _Loop(server, warm, None)
        loop.run(session, min(1.0, seconds / 4))
        measured = Phase("measured")
        result.phases.append(measured)
        loop = _Loop(server, measured, result)
        if traced:
            server.mark()
        result.measured_s = loop.run(session, seconds)
        if traced:
            server.mark()
        measured_rtts = loop.rtts

        rng = np.random.default_rng(seed + 1)
        topn = Phase("topn-probe")
        result.phases.append(topn)
        probe_users = rng.choice(users, 16 if smoke else 192).tolist()
        topn_replies = _probe(server, [("topn", "/topn", {"user": int(u), "k": 10})
                                       for u in probe_users], topn, result)
        _finish_server(server, result, bundle_dir)
    finally:
        server.stop()

    oracle = Oracle(bundle_dir)
    oracle.replay("user", user_log)
    topn_samples = [TopNSample(b["user"], 10, r["items"], r["scores"], 0, 0)
                    for _, b, r in topn_replies]
    wrong = {"ids": oracle.id_mismatches, "scores": oracle.check_scores(samples, MAX_FUSED_PAIRS),
             "topn": oracle.check_topn(topn_samples, {})}
    result.wrong = sum(wrong.values())
    result.notes = {"score_samples_checked": len(samples), "topn_samples_checked": len(topn_samples),
                    "onboarded": {"users": len(user_log)}, "wrong": wrong,
                    "score_composition_variants": oracle.composition_variants,
                    "max_score_error": oracle.max_score_error}
    if traced:
        result.layers = _server_layers(json.loads(dump_path.read_text())["marks"], measured_rtts)
        result.layers["replay"] = oracle.layer_timings()
    return result


def run_coldstart(bundle_dir: Path, seed: int, seconds: float, num_users: int, num_items: int,
                  traced: bool, work: Path, smoke: bool) -> Result:
    """Sessions of POST /users (new attribute-only user), /topn for it, /topn
    for an existing user; every 4th session also onboards a new item."""
    result = Result()
    dump_path = work / "trace-coldstart.json"
    user_rows = arrivals(seed, "user", 4000)
    item_rows = arrivals(seed, "item", 1000)
    started = time.perf_counter()
    server = start_server(bundle_dir, workers_for_host(), traced=traced, dump=dump_path)
    result.start_s = time.perf_counter() - started
    user_log: Dict[int, List[float]] = {}
    item_log: Dict[int, List[float]] = {}
    topn_samples: List[TopNSample] = []
    state = {"items_sent": 0, "items_done": 0}
    state_lock = threading.Lock()
    sessions = itertools.count()
    try:
        def topn(loop: _Loop, client: Client, user: int, sample: bool) -> None:
            with state_lock:
                lo = state["items_done"]
            reply = loop.call(client, "topn", "/topn", {"user": user, "k": 10})
            with state_lock:
                hi = state["items_sent"]
            if reply is not None and sample:
                topn_samples.append(TopNSample(user, 10, reply["items"], reply["scores"], lo, hi))

        def session_body(loop: _Loop) -> Callable[[int, Client, Callable[[], bool]], None]:
            def session(index: int, client: Client, running: Callable[[], bool]) -> None:
                rng = np.random.default_rng([seed, index, loop.phase.name == "measured"])
                while running():
                    n = next(sessions)
                    attrs = user_rows[n % len(user_rows)].tolist()
                    reply = loop.call(client, "onboard", "/users", {"attributes": attrs})
                    if reply is None:
                        continue
                    user = int(reply["user"])
                    user_log[user] = attrs
                    topn(loop, client, user, sample=n % 4 == 0)
                    topn(loop, client, int(rng.integers(num_users)), sample=n % 4 == 2)
                    if n % 4 == 0:
                        attrs = item_rows[(n // 4) % len(item_rows)].tolist()
                        with state_lock:
                            state["items_sent"] += 1
                        reply = loop.call(client, "onboard", "/items", {"attributes": attrs})
                        if reply is not None:
                            item = int(reply["item"])
                            item_log[item] = attrs
                            with state_lock:
                                state["items_done"] = max(state["items_done"], item - num_items + 1)
            return session

        warm = Phase("warmup")
        result.phases.append(warm)
        loop = _Loop(server, warm, None)
        loop.run(session_body(loop), min(1.0, seconds / 4))
        measured = Phase("measured")
        result.phases.append(measured)
        loop = _Loop(server, measured, result)
        if traced:
            server.mark()
        result.measured_s = loop.run(session_body(loop), seconds)
        if traced:
            server.mark()
        measured_rtts = loop.rtts

        rng = np.random.default_rng(seed + 1)
        score = Phase("score-probe")
        result.phases.append(score)
        known_users = num_users + len(user_log)
        bodies = []
        for _ in range(32 if smoke else 128):
            user = int(rng.integers(known_users))
            items = rng.choice(num_items + len(item_log), RERANK_CANDIDATES, replace=False).tolist()
            bodies.append(("score", "/score", {"users": [user] * RERANK_CANDIDATES, "items": items}))
        score_replies = _probe(server, bodies, score, result)
        _finish_server(server, result, bundle_dir)
    finally:
        server.stop()

    oracle = Oracle(bundle_dir)
    oracle.replay("user", user_log)
    topn_wrong = oracle.check_topn(topn_samples, item_log)
    oracle.replay("item", item_log)
    wrong = {"ids": oracle.id_mismatches, "topn": topn_wrong, "scores": oracle.check_scores(
        [(b["users"], b["items"], r["scores"]) for _, b, r in score_replies], MAX_FUSED_PAIRS)}
    result.wrong = sum(wrong.values())
    result.notes = {"topn_samples_checked": len(topn_samples), "score_samples_checked": len(score_replies),
                    "onboarded": {"users": len(user_log), "items": len(item_log)}, "wrong": wrong,
                    "score_composition_variants": oracle.composition_variants,
                    "max_score_error": oracle.max_score_error}
    if traced:
        result.layers = _server_layers(json.loads(dump_path.read_text())["marks"], measured_rtts)
        result.layers["replay"] = oracle.layer_timings()
    return result
