"""Fig. 8: multi-programmed performance, LRU baseline LLC policy.

Schemes: baseline inclusive, non-inclusive, QBS, SHARP, and the three ZIV
designs for LRU (NotInPrC, LRUNotInPrC, LikelyDead), plus the paper's
CHARonBase comparison point, at the three L2 capacities.  Normalised to
I-LRU @ 256 KB.

Expected shape (paper): QBS/SHARP near NI at 256 KB but failing to scale;
ZIV-NotInPrC/LRUNotInPrC close to QBS/SHARP but with a zero-inclusion-
victim guarantee; ZIV-LikelyDead best across the board, meeting or beating
NI at 256/512 KB; CHARonBase between the two groups.
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
SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("qbs", "QBS"),
    ("sharp", "SHARP"),
    ("charonbase", "CHARonBase"),
    ("ziv:notinprc", "ZIV-NotInPrC"),
    ("ziv:lrunotinprc", "ZIV-LRUNotInPrC"),
    ("ziv:likelydead", "ZIV-LikelyDead"),
)


def scheme_grid(scale, policy: str, schemes) -> dict:
    """The baseline, then every scheme at every L2 point under
    ``policy`` (Fig. 11 shares this with its Hawkeye schemes)."""
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for l2 in L2_POINTS:
        for scheme, label in schemes:
            out[l2, label] = [
                make_recipe(wl, scheme, policy, l2=l2) for wl in mixes
            ]
    return out


def speedup_table(runs: dict, schemes, figure: str,
                  title: str) -> FigureResult:
    fig = FigureResult(
        figure=figure,
        title=title,
        columns=["l2", "scheme", "speedup", "min", "max", "incl_victims"],
    )
    for l2 in L2_POINTS:
        for _scheme, label in schemes:
            results = runs[l2, label]
            s = speedup_summary(normalized_speedups(runs["baseline"], results))
            victims = sum(r.stats.inclusion_victims_llc for r in results)
            fig.add(l2, label, s["mean"], s["min"], s["max"], victims)
    return fig


def grid(scale=None) -> dict:
    return scheme_grid(scale, "lru", SCHEMES)


def table(runs: dict) -> FigureResult:
    return speedup_table(
        runs, SCHEMES, "Fig.8",
        "Multi-programmed speedup, LRU baseline (norm. to I-LRU 256KB)",
    )
