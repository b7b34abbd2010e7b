"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning a structured result and a
``main()`` that prints the same rows/series the paper reports.  The
benchmarks package wraps these for ``pytest-benchmark``; the registry
maps experiment ids to run functions.
"""

from repro.experiments.registry import EXPERIMENTS

__all__ = ["EXPERIMENTS"]
