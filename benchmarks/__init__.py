"""Benchmarks: the end-to-end record (``benchmarks/e2e``), the paired A/B
runner (``ab.py``), the throughput floors and the paper-figure cells."""
