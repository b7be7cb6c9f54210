"""Benchmark of the dense multicut solvers; run it with ``python3 solverbench/run.py``."""
