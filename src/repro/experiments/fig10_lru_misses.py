"""Fig. 10: normalised LLC misses (upper panel) and L2 misses (lower
panel) for the LRU-baseline schemes of Fig. 8.

Expected shape (paper): ZIV-LikelyDead saves more LLC misses than NI at
256/512 KB; QBS, SHARP and the ZIV designs all save nearly the same L2
misses as NI (they all suppress nearly every inclusion victim).
"""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.experiments.fig08_lru_perf import L2_POINTS, SCHEMES
from repro.experiments.fig08_lru_perf import grid  # noqa: F401  (same grid)
from repro.sim.metrics import normalized_counts


def miss_table(runs: dict, schemes, figure: str, title: str) -> FigureResult:
    fig = FigureResult(
        figure=figure,
        title=title,
        columns=["l2", "scheme", "norm_llc_misses", "norm_l2_misses"],
    )
    for l2 in L2_POINTS:
        for _scheme, label in schemes:
            results = runs[l2, label]
            fig.add(
                l2,
                label,
                normalized_counts(runs["baseline"], results, "llc_misses"),
                normalized_counts(runs["baseline"], results, "l2_misses"),
            )
    return fig


def table(runs: dict) -> FigureResult:
    return miss_table(
        runs, SCHEMES, "Fig.10", "Normalised LLC and L2 misses, LRU baseline"
    )
