"""Benchmark for the twoqfa package; run it with ``python3 perfbench/run.py``.

This package must not import numpy or twoqfa at import time: the set-up
probe times the first import of twoqfa in a fresh process.
"""
