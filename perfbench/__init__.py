"""Benchmark of speclab's decode, training and model-I/O throughput.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` describes the
workloads and metrics.
"""
