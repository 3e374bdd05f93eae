"""The traced twin of ``repro serve --workers N``.

Builds the same :class:`WorkerPool` the CLI builds, wraps it in a
:class:`~perfbench.proxies.TimedPool` and hands that to ``make_server``.  It
prints the CLI's ``listening on`` line, serves until its stdin closes, then
writes one JSON dump — the proxy's call samples, the server process's
telemetry snapshot, every worker's snapshot (``collect_telemetry``) and the
pool's stats — before it drains and shuts down.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()

    from repro.serving import WorkerPool, make_server

    from perfbench import proxies

    pool = proxies.TimedPool(WorkerPool(args.bundle, workers=args.workers))
    server = make_server(pool=pool, port=0)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    print(f"listening on http://127.0.0.1:{server.port}", flush=True)
    marks = []
    try:
        for line in sys.stdin:  # the benchmark closes stdin to stop us
            if line.strip() == "mark":
                marks.append({
                    "proxy": proxies.snapshot(pool),
                    "workers": pool.collect_telemetry(max_spans=1),
                    "pool": pool.stats(),
                })
                print(f"marked {len(marks)}", flush=True)
        Path(args.dump).write_text(json.dumps({"marks": marks}))
    finally:
        server.shutdown()
        server.server_close()
        loop.join(10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
