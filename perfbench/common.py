"""Shared helpers: percentiles, process memory, environment fingerprint."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

from repro.telemetry.metrics import quantile

ROOT = Path(__file__).resolve().parents[1]

#: all scratch state (bundles, trace dumps) lives here and is removed at exit
WORK_DIR = ROOT / "perfbench" / ".work"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]; 0.0 for no samples."""
    return quantile(sorted(values), q) if values else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def pss_kb(pid: int, needle: Optional[str] = None) -> float:
    """Pss of ``pid`` in KiB: the whole process, or only mappings of files
    whose path contains ``needle``.  Pss charges each shared page 1/N to each
    of its N sharers, so summing it over processes counts shared pages once.
    Returns 0.0 where smaps is unavailable."""
    total = 0.0
    in_mapping = needle is None
    try:
        with open(f"/proc/{pid}/smaps", "r") as handle:
            for line in handle:
                head = line.split(" ", 1)[0]
                if "-" in head and ":" not in head:
                    in_mapping = needle is None or needle in line
                elif in_mapping and line.startswith("Pss:"):
                    total += float(line.split()[1])
    except OSError:
        return 0.0
    return total


def pss_mb(pids: Iterable[int], needle: Optional[str] = None) -> float:
    return sum(pss_kb(pid, needle) for pid in pids) / 1024.0


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps", "r") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> Dict[str, object]:
    """Where the numbers came from: CPUs, BLAS, versions, git, switches."""
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, AttributeError):
        pass
    blas["threads"] = _blas_threads()
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        git = describe.stdout.strip() if describe.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        git = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_describe": git,
        "REPRO_TELEMETRY": os.environ.get("REPRO_TELEMETRY", "unset (on)"),
        "REPRO_OBS": os.environ.get("REPRO_OBS", "unset (off)"),
    }


class Phase:
    """Request accounting for one benchmark phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.shed = 0

    def as_dict(self) -> Dict[str, object]:
        return {"phase": self.name, "sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "shed": self.shed}

