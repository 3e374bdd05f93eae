"""Online inference: model bundles, the serving engine, onboarding, HTTP.

The offline stack (``repro.core`` + ``repro.train``) produces a fitted AGNN;
this package turns it into a *service*:

* :mod:`~repro.serving.bundle` — export/load a self-contained artifact
  directory (weights, config, graphs, attribute schemas, manifest) so a
  server starts without the training dataset;
* :mod:`~repro.serving.engine` — :class:`InferenceEngine`: precomputed
  refined-embedding caches, LRU-cached ``score``, ``predict_batch`` and
  ``top_n`` retrieval, all under ``no_grad``;
* :mod:`~repro.serving.onboarding` — live strict-cold-start onboarding:
  attribute encoding, eVAE preference generation, attribute-graph splice;
* :mod:`~repro.serving.batching` — :class:`BatchingEngine`: the
  request-coalescing core — concurrent score/top-N/onboarding requests are
  queued and fused into per-tick vectorised calls, with bounded-queue
  backpressure (shed → HTTP 429) and per-tick telemetry;
* :mod:`~repro.serving.mapped` — memory-mapped bundle state: the serving
  arrays materialised once as ``.npy`` files and shared read-only across
  processes via ``np.load(..., mmap_mode="r")``;
* :mod:`~repro.serving.workers` — :class:`WorkerPool`: N ``spawn``-ed serving
  processes over one mmap-shared bundle, with least-outstanding dispatch,
  sequence-numbered onboarding/swap broadcasts, and crash respawn;
* :mod:`~repro.serving.server` — a stdlib JSON HTTP front-end
  (``/score``, ``/topn``, ``/users``, ``/items``, ``/healthz``, ``/metrics``)
  with draining shutdown, single-process or pool-backed (``--workers N``);
* :mod:`~repro.serving.loadgen` — load-generation primitives (closed and
  open loops, the worker-pool sweep, the tracing phase) behind the
  ``serving`` suite of ``repro bench``.

CLI entry points: ``repro export-bundle``, ``repro serve``, ``repro trace``,
``repro bench serving``.
"""

from .bundle import (
    MANIFEST_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ServingBundle,
    export_bundle,
    load_bundle,
)
from .engine import InferenceEngine
from .batching import BatchingEngine, EngineOverloadedError
from .mapped import (
    BundleMappingError,
    materialise_mapped,
    mapped_is_fresh,
    open_bundle_mapped,
)
from .workers import PoolStoppedError, WorkerCrashedError, WorkerPool
from .onboarding import encode_attribute_row, splice_neighbours
from .server import ServingHTTPServer, make_server, serve_forever

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ServingBundle",
    "export_bundle",
    "load_bundle",
    "InferenceEngine",
    "BatchingEngine",
    "EngineOverloadedError",
    "BundleMappingError",
    "materialise_mapped",
    "mapped_is_fresh",
    "open_bundle_mapped",
    "WorkerPool",
    "WorkerCrashedError",
    "PoolStoppedError",
    "encode_attribute_row",
    "splice_neighbours",
    "ServingHTTPServer",
    "make_server",
    "serve_forever",
]
