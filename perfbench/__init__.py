"""Seeded end-to-end and per-layer benchmark for ``cadinterop``.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the repository root and prints one JSON result line.
``BENCHMARK.json`` at the root names the workloads and metrics.
"""
