"""Shared benchmark configuration.

Benchmarks regenerate every table and figure of the paper at a reduced scale.
By default they run on the SMOKE datasets (minutes, laptop CPU); set

    REPRO_BENCH_SCALE=bench

for the larger preset the experiment mains use (tens of minutes).  Each
benchmark prints the paper-style table/series it regenerates and asserts the
*shape* targets documented in DESIGN.md §5 — not absolute numbers.

The ``repro bench`` tripwires share two fixtures: :func:`check_run` runs each
suite's ``check`` preset at most once per session (written to disk and read
back), and :func:`committed` loads a repo-root ``BENCH_<suite>.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import run_suite
from repro.experiments.configs import BENCH, SMOKE, ExperimentScale

REPO_ROOT = Path(__file__).resolve().parent.parent


def _selected_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "smoke").lower()
    if name == "bench":
        return BENCH
    if name == "smoke":
        return SMOKE
    raise ValueError(f"REPRO_BENCH_SCALE must be 'smoke' or 'bench', got {name!r}")


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return _selected_scale()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are full training runs; repeating them for statistical
    timing would multiply the suite's cost for no benefit.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def check_run(tmp_path_factory):
    """``check_run(suite)`` → (in-memory envelope, envelope read back from disk)."""
    runs = {}

    def run(suite: str):
        if suite not in runs:
            path = tmp_path_factory.mktemp(suite) / f"BENCH_{suite}.json"
            envelope = run_suite(suite, check=True, output=str(path))
            runs[suite] = (envelope, json.loads(path.read_text()))
        return runs[suite]

    return run


@pytest.fixture(scope="session")
def committed():
    """``committed(suite)`` → the repo-root ``BENCH_<suite>.json`` envelope."""

    def load(suite: str) -> dict:
        path = REPO_ROOT / f"BENCH_{suite}.json"
        assert path.is_file(), f"{path.name} missing — run `repro bench {suite}`"
        envelope = json.loads(path.read_text())
        assert envelope["suite"] == suite and envelope["preset"] == "full"
        return envelope

    return load
