"""Benchmark-suite configuration.

``bench_figures.py`` regenerates each paper figure, table and ablation
study and prints its rows.  Simulations are memoised process-wide (the
tables overlap heavily), so the suite's total cost is far below the sum
of its parts.  Set REPRO_SCALE=smoke|quick|standard|full to trade
fidelity for time (default: quick).
"""

import os

import pytest


@pytest.fixture(scope="session")
def scale():
    return os.environ.get("REPRO_SCALE", "quick")
