"""Fig. 12: per-mix speedup of ZIV-MRLikelyDead @ 512 KB (Hawkeye)."""

from __future__ import annotations

from repro.experiments.common import (
    FigureResult,
    baseline_recipes,
    get_scale,
    mix_population,
)
from repro.sim.metrics import geomean, mix_speedup
from repro.sim.parallel import make_recipe


def grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    return {
        "baseline": baseline_recipes(mixes),
        "ZIV-MRLikelyDead": [
            make_recipe(wl, "ziv:mrlikelydead", "hawkeye", l2="512KB")
            for wl in mixes
        ],
    }


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.12",
        title="Per-mix speedup of ZIV-MRLikelyDead @512KB (norm. I-LRU 256KB)",
        columns=["mix", "kind", "speedup"],
    )
    homo_sp, hetero_sp = [], []
    for base, run_ in zip(runs["baseline"], runs["ZIV-MRLikelyDead"]):
        sp = mix_speedup(base, run_)
        kind = "hetero" if run_.workload.startswith("hetero") else "homo"
        (hetero_sp if kind == "hetero" else homo_sp).append(sp)
        fig.add(run_.workload, kind, sp)
    if homo_sp:
        fig.add("AVG-homo", "homo", geomean(homo_sp))
    if hetero_sp:
        fig.add("AVG-hetero", "hetero", geomean(hetero_sp))
    return fig
