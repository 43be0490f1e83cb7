"""Fig. 1: inclusive vs non-inclusive LLC performance across L2 sizes.

The paper's motivation study: speedup of {I, NI} x {LRU, Hawkeye} at
256/512/768 KB per-core L2, normalised to I-LRU @ 256 KB, with the min/max
range over the mix population annotated on every bar.

Expected shape (paper): NI >= I everywhere; the I/NI gap is much larger
under Hawkeye; growing the L2 helps NI but slowly *hurts* I.
"""

from __future__ import annotations

from repro.experiments.common import (
    FigureResult,
    baseline_recipes,
    get_scale,
    mix_population,
)
from repro.sim.metrics import normalized_speedups, speedup_summary
from repro.sim.parallel import make_recipe

L2_POINTS = ("256KB", "512KB", "768KB")
CONFIGS = (
    ("inclusive", "lru", "I-LRU"),
    ("noninclusive", "lru", "NI-LRU"),
    ("inclusive", "hawkeye", "I-Hawkeye"),
    ("noninclusive", "hawkeye", "NI-Hawkeye"),
)


def grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for l2 in L2_POINTS:
        for scheme, policy, label in CONFIGS:
            out[l2, label] = [
                make_recipe(wl, scheme, policy, l2=l2) for wl in mixes
            ]
    return out


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.1",
        title="Inclusive vs non-inclusive LLC speedup (norm. to I-LRU 256KB)",
        columns=["l2", "config", "speedup", "min", "max"],
    )
    for l2 in L2_POINTS:
        for _scheme, _policy, label in CONFIGS:
            s = speedup_summary(
                normalized_speedups(runs["baseline"], runs[l2, label]))
            fig.add(l2, label, s["mean"], s["min"], s["max"])
    return fig
