"""End-to-end and per-layer benchmark of the fracture1d command line.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
