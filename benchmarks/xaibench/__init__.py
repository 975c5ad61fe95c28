"""xaibench: served and library explanations, end to end and per layer.

Run ``python -m benchmarks.xaibench`` from the repository root; the
workloads, metrics and bounds are described in ``README.md`` here and
declared in ``BENCHMARK.json`` at the root.
"""
