"""Smoke tests of the serving benchmark: every workload end to end on the
small catalogue, checked against the output contract in BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


@lru_cache(maxsize=None)
def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def outputs(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def check_contract(report: dict, result: dict, trace: int) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert report["seed"] == SEED and report["smoke"] is True
    assert {"nproc", "blas", "numpy", "python", "git_describe", "REPRO_TELEMETRY",
            "REPRO_OBS"} <= set(report["environment"])
    for phase in report["phases"]:
        assert phase["sent"] == phase["succeeded"] + phase["failed"] + phase["shed"]


def check_oracle(report: dict, result: dict) -> None:
    """Every sampled answer must match the oracle; scores that differ from
    ``predict_batch`` only by the batch they were computed in (README,
    Findings) stay within a few ulps."""
    wrong = report["notes"]["wrong"]
    assert sum(wrong.values()) == 0 and result["correct"] is True, report["notes"]
    assert report["notes"].get("max_score_error", 0.0) < 1e-12, report["notes"]
    assert all(p["failed"] == p["shed"] == 0 for p in report["phases"]), report["phases"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_end_to_end(workload: str, trace: int) -> None:
    report, result = outputs(run(workload, trace))
    check_contract(report, result, trace)
    check_oracle(report, result)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_oracle_accepts_only_values_the_head_computes() -> None:
    """A score that differs from ``predict_batch`` is right only when the head
    gives exactly that value in some batch; anything else is wrong."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalogue
    from perfbench.oracle import Oracle

    work = ROOT / "perfbench" / ".work" / "oracle-test"
    shutil.rmtree(work, ignore_errors=True)
    try:
        oracle = Oracle(catalogue.build(work / "bundle", smoke=True).bundle_dir)
        users, items = [3] * 100, list(range(100))
        expected = oracle.engine.predict_batch(users, items)
        variants = [next((v for v in oracle.batch_values(u, i, 200) if v != e), None)
                    for u, i, e in zip(users, items, expected)]
        j = next(j for j, v in enumerate(variants) if v is not None)

        served = expected.copy()
        served[j] = variants[j]
        assert oracle.check_scores([(users, items, served.tolist())], 200) == 0
        assert oracle.composition_variants == 1
        served[j] = np.nextafter(max(oracle.batch_values(users[j], items[j], 200)), np.inf)
        assert oracle.check_scores([(users, items, served.tolist())], 200) == 1
        as_float32 = expected.astype(np.float32).astype(np.float64)
        assert oracle.check_scores([(users, items, as_float32.tolist())], 200) == 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_the_program_sources() -> None:
    bare = ROOT / "perfbench" / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rerank", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
