"""Fig. 14: sensitivity to LLC capacity -- 16 MB LLC with 1 MB per-core L2
(scaled: LLC doubled, per-core L2 = half the per-core LLC share).

Normalised to the *8 MB* I-LRU 256 KB baseline, as in the paper.

Expected shape (paper): under LRU, ZIV-LikelyDead still surpasses NI;
under Hawkeye, MRNotInPrC and MRLikelyDead come close to NI.
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

LRU_SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("ziv:notinprc", "ZIV-NotInPrC"),
    ("ziv:lrunotinprc", "ZIV-LRUNotInPrC"),
    ("ziv:likelydead", "ZIV-LikelyDead"),
)
HAWKEYE_SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("ziv:maxrrpvnotinprc", "ZIV-MRNotInPrC"),
    ("ziv:mrlikelydead", "ZIV-MRLikelyDead"),
)
POLICIES = (("lru", LRU_SCHEMES), ("hawkeye", HAWKEYE_SCHEMES))


def grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}  # 8MB-scale I-LRU 256KB
    for policy, schemes in POLICIES:
        for scheme, label in schemes:
            out[policy, label] = [
                make_recipe(wl, scheme, policy, l2="1MB", llc_scale=2)
                for wl in mixes
            ]
    return out


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.14",
        title="16MB LLC + 1MB L2 sensitivity (norm. to 8MB I-LRU 256KB)",
        columns=["policy", "scheme", "speedup", "min", "max"],
    )
    for policy, schemes in POLICIES:
        for _scheme, label in schemes:
            s = speedup_summary(
                normalized_speedups(runs["baseline"], runs[policy, label]))
            fig.add(policy, label, s["mean"], s["min"], s["max"])
    return fig
