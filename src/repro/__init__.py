"""repro — a from-scratch reproduction of AGNN (Attribute Graph Neural Networks
for Strict Cold Start Recommendation, Qian et al., TKDE 2020 / ICDE 2023).

Subpackages
-----------
autograd    reverse-mode autodiff engine (numpy substrate)
nn          neural-network layers and losses
optim       SGD / Adam optimizers, clipping, schedules
data        synthetic MovieLens-like and Yelp-like dataset generators, splits
graphs      attribute-graph construction (proximities, candidate pools, kNN)
core        the AGNN model: interaction layer, eVAE, gated-GNN, prediction head
baselines   twelve comparison models from the paper's Table 2
train       trainer, metrics, evaluation protocol, significance tests,
            training-health monitors
experiments runners that regenerate every table and figure of the paper
ranking     implicit-feedback / top-N ranking extension
analysis    post-hoc homophily, error-slicing and embedding diagnostics
verify      correctness harness: differential fuzzing, goldens, invariants
telemetry   the one observability plane behind REPRO_TELEMETRY=off|on|full:
            metrics, spans + traces, event log, exporters, profiler, reports
serving     online inference: model bundles, engine, live SCS onboarding, HTTP,
            coalescing queue and the multi-process worker pool
live        continuous learning: incremental refresh, bundle store, hot swap
bench       `repro bench <suite>`: the one runner behind every BENCH_*.json
"""

__version__ = "1.0.0"
