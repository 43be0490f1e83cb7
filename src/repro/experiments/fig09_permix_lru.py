"""Fig. 9: per-mix speedup of ZIV-LikelyDead @ 512 KB L2 (LRU baseline).

The paper's per-mix breakdown: heterogeneous mixes benefit more (memory-
intensive applications inflict inclusion victims on cache-resident ones),
and on average 12% of LLC misses require a relocation (max 33%).
"""

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
        "ZIV-LikelyDead": [
            make_recipe(wl, "ziv:likelydead", "lru", l2="512KB")
            for wl in mixes
        ],
    }


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.9",
        title="Per-mix speedup of ZIV-LikelyDead @512KB (norm. I-LRU 256KB)",
        columns=["mix", "kind", "speedup", "reloc_per_llc_miss"],
    )
    homo_sp, hetero_sp, reloc_fracs = [], [], []
    for base, run_ in zip(runs["baseline"], runs["ZIV-LikelyDead"]):
        sp = mix_speedup(base, run_)
        frac = (
            run_.stats.relocations / run_.stats.llc_misses
            if run_.stats.llc_misses
            else 0.0
        )
        kind = "hetero" if run_.workload.startswith("hetero") else "homo"
        (hetero_sp if kind == "hetero" else homo_sp).append(sp)
        reloc_fracs.append(frac)
        fig.add(run_.workload, kind, sp, frac)
    if homo_sp:
        fig.add("AVG-homo", "homo", geomean(homo_sp), 0.0)
    if hetero_sp:
        fig.add("AVG-hetero", "hetero", geomean(hetero_sp), 0.0)
    fig.notes = (
        f"avg relocations per LLC miss = "
        f"{sum(reloc_fracs) / len(reloc_fracs):.3f}, "
        f"max = {max(reloc_fracs):.3f} (paper: avg 0.12, max 0.33)"
    )
    return fig
