"""Benchmark harness for dfsim; run it with ``python3 perfbench/run.py``."""
