"""Regenerates every paper figure and table (see repro.experiments).

One benchmark per entry of ``ALL_FIGURES``; select one with ``-k``,
e.g. ``pytest benchmarks/bench_figures.py -k fig11_hawkeye_perf``.
"""

import pytest
from conftest import run_and_print

from repro.experiments import ALL_FIGURES


@pytest.mark.parametrize("figure", ALL_FIGURES)
def test_figure(benchmark, scale, figure):
    result = run_and_print(benchmark, figure, scale)
    assert result.rows, "figure produced no rows"
