"""The serving benchmark: one command, two workloads, per-layer attribution.

Run ``python3 perfbench/run.py --workload <rerank|coldstart> --seed N
--seconds S --trace <0|1>`` from the repository root; see ``README.md`` in
this directory for the workloads, the metrics and what each layer metric is
predicted to move.
"""
