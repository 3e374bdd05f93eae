"""The bench runner's envelope: committed baselines and the timing summary."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import SCHEMA_VERSION, SUITES, environment, summarise

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_one_committed_baseline_per_suite():
    assert {path.stem[len("BENCH_"):] for path in COMMITTED} == set(SUITES)


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
def test_committed_envelope(path):
    envelope = json.loads(path.read_text())
    assert envelope["schema_version"] == SCHEMA_VERSION
    assert envelope["suite"] == path.stem[len("BENCH_"):]
    assert envelope["preset"] == "full"
    for key in ("nproc", "blas", "blas_threads", "git_describe"):
        assert envelope["env"][key], f"env.{key} missing"
    assert envelope["metrics"] and all(
        value is None or isinstance(value, (bool, int, float))
        for value in envelope["metrics"].values()
    ), "metrics must be a flat map of scalars"
    assert envelope["ok"] is True


def test_environment_fingerprint():
    env = environment()
    assert env["nproc"] >= 1 and env["blas_threads"] >= 1
    assert env["numpy"] == np.__version__
    assert env["git_describe"]


def test_summarise_matches_numpy_quartiles():
    samples = np.random.default_rng(0).exponential(size=37)
    stats = summarise(samples.tolist())
    q1, median, q3 = np.quantile(samples, [0.25, 0.5, 0.75])
    assert stats["median"] == pytest.approx(median)
    assert stats["iqr"] == pytest.approx(q3 - q1)
    assert stats["n"] == 37
