"""Regenerates every table of ``repro.experiments.TABLES``: the paper's
figures and tables, then the ablation studies.

One benchmark per name; select one with ``-k``, e.g.
``pytest benchmarks/bench_figures.py -k fig11_hawkeye_perf``.  A table
whose claim must hold at every scale checks it in :data:`CHECKS`.
"""

import pytest

from repro.experiments import TABLES, run_figure


def check_tla_family(result):
    victims = {row[0]: row[2] for row in result.rows}
    # ZIV's guarantee: zero inclusion victims.  The TLA schemes give no
    # such guarantee: TLH and ECI make them (at smoke scale TLH 114, ECI
    # 230, inclusive 200), and QBS makes them whenever every candidate
    # of a set is privately cached.
    assert victims["ziv:likelydead"] == 0


def check_penalty_sensitivity(result):
    for app, speedup, _relocated_hits in result.rows:
        # nullifying a small penalty must not change performance by >2%
        assert 0.98 <= speedup <= 1.02, app


def check_prefetch_interplay(result):
    rows = result.row_map(2)
    # ZIV stays inclusion-victim-free with the prefetcher off and on
    assert rows["off", "ziv:mrlikelydead"][1] == 0
    assert rows["stride", "ziv:mrlikelydead"][1] == 0


CHECKS = {
    "tla_family": check_tla_family,
    "penalty_sensitivity": check_penalty_sensitivity,
    "prefetch_interplay": check_prefetch_interplay,
}


@pytest.mark.parametrize("name", TABLES)
def test_table(benchmark, scale, name):
    result = benchmark.pedantic(
        lambda: run_figure(name, scale), rounds=1, iterations=1
    )
    print()
    result.print_table()
    assert result.rows, "table produced no rows"
    if name in CHECKS:
        CHECKS[name](result)
