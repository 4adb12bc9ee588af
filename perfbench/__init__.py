"""Benchmark of the Cx reproduction; see run.py."""
