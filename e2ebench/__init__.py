"""End-to-end benchmark of the tuning pipeline, with per-layer timings.

Run ``python3 e2ebench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``e2ebench/NOTES.md`` explains
the workloads and metrics.
"""
