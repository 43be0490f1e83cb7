"""Relocated-access latency sensitivity (paper Section V-B).

The paper observes that "the additional LLC latency incurred for accessing
the shared relocated blocks ... has very little performance impact as
nullifying this additional latency affects performance by a negligible
amount."  This bench nullifies the penalty and measures the delta.
"""

import dataclasses

from repro.experiments.common import (
    FigureResult,
    get_scale,
    mt_workload,
    resolve,
)
from repro.params import scaled_config
from repro.sim.metrics import geomean, mix_speedup
from repro.sim.parallel import make_recipe
from repro.workloads.multithreaded import MT_APP_NAMES


def run_penalty_sensitivity(scale=None) -> FigureResult:
    scale = get_scale(scale)
    normal_cfg = scaled_config("512KB")
    zero_cfg = normal_cfg.replace(
        core=dataclasses.replace(normal_cfg.core, relocated_access_penalty=0)
    )
    grid = {}
    for app in MT_APP_NAMES:
        if app == "tpce":
            continue
        wl = mt_workload(app, scale, cores=8)
        grid[app] = [
            make_recipe(wl, "ziv:mrlikelydead", "hawkeye", config=cfg)
            for cfg in (normal_cfg, zero_cfg)
        ]
    fig = FigureResult(
        figure="Ablation-F",
        title="Relocated-access penalty: 2 cycles vs nullified (MT apps)",
        columns=["app", "speedup_nullified_vs_normal", "relocated_hits"],
    )
    deltas = []
    for app, (normal, zero) in resolve(grid).items():
        sp = mix_speedup(normal, zero)
        deltas.append(sp)
        fig.add(app, sp, normal.stats.relocated_hits)
    fig.notes = (
        f"geomean impact of nullifying the penalty: {geomean(deltas):.4f} "
        "(paper: negligible)"
    )
    return fig


def test_ablation_reloc_penalty(benchmark, scale):
    result = benchmark.pedantic(
        lambda: run_penalty_sensitivity(scale), rounds=1, iterations=1
    )
    print()
    result.print_table()
    assert result.rows
    for row in result.rows:
        # nullifying a small penalty must not change performance by >2%
        assert 0.98 <= row[1] <= 1.02
