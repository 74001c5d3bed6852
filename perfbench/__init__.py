"""The repository benchmark: ingest, query and nrt workloads on one core.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  See README.md.
"""
