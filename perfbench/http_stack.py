"""Serving processes and the keep-alive HTTP client the generator uses.

:func:`start_server` runs either the shipped ``repro serve`` command (the
untraced runs) or ``perfbench/traced_server.py`` (the traced run, which wraps
the pool in timing proxies) as a child process on an ephemeral port, and
:class:`ServerProcess.stop` always reaps it and its workers.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import ROOT

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def serving_env() -> Dict[str, str]:
    """The program's shipped defaults: telemetry on, observability off."""
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_TELEMETRY", "REPRO_OBS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    def __init__(self, proc: subprocess.Popen, host: str, port: int) -> None:
        self.proc = proc
        self.host = host
        self.port = port
        self._log: List[str] = []
        # Keep draining stdout so the child never blocks on a full pipe.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._log.append(line)

    def get(self, path: str) -> Tuple[int, Any]:
        """One GET on a fresh connection: (status, json)."""
        client = Client(self.host, self.port)
        try:
            status, payload, _, _ = client.request("GET", path)
            return status, payload
        finally:
            client.close()

    def pids(self) -> List[int]:
        """The server process and its live workers (from ``/healthz``)."""
        _, health = self.get("/healthz")
        workers = [w.get("pid") for w in (health or {}).get("workers", [])]
        return [self.proc.pid] + [pid for pid in workers if pid]

    def mark(self, timeout: float = 60.0) -> None:
        """Traced server only: have it snapshot its telemetry now, and wait
        until it has (the snapshots bracket the measured phase)."""
        wanted = f"marked {sum(line.startswith('marked ') for line in self._log) + 1}\n"
        self.proc.stdin.write("mark\n")
        self.proc.stdin.flush()
        deadline = time.monotonic() + timeout
        while wanted not in self._log:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server did not acknowledge a mark")
            time.sleep(0.01)

    def stop(self, timeout: float = 30.0) -> None:
        """Ask the server to drain and shut its pool down; kill it on timeout."""
        if self.proc.poll() is None:
            if self.proc.stdin is not None:
                self.proc.stdin.close()  # the traced server dumps and stops on EOF
            else:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        self._reader.join(5)


def start_server(bundle_dir: Path, workers: int, traced: bool = False,
                 dump: Optional[Path] = None, timeout: float = 120.0) -> ServerProcess:
    """Start a pool-backed server and wait until it answers ``/healthz``."""
    if traced:
        cmd = [sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
               "--bundle", str(bundle_dir), "--workers", str(workers), "--dump", str(dump)]
    else:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--bundle", str(bundle_dir),
               "--port", "0", "--workers", str(workers)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=serving_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + timeout
    seen: List[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        seen.append(line)
        match = _LISTENING.search(line)
        if match:
            server = ServerProcess(proc, match.group(1), int(match.group(2)))
            status, _ = server.get("/healthz")
            if status == 200:
                return server
            server.stop()
            break
    if proc.poll() is None:
        proc.kill()
    proc.wait(10)
    raise RuntimeError("server failed to start:\n" + "".join(seen[-20:]))


class Client:
    """One keep-alive connection; ``request`` returns (status, json, seconds,
    request id)."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, Any, float, str]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        elapsed = time.perf_counter() - started
        return (resp.status, json.loads(data) if data else None, elapsed,
                resp.getheader("X-Request-ID", ""))

    def close(self) -> None:
        self.conn.close()
