"""Benchmark of the release pipeline and its serving tiers (see run.py)."""
