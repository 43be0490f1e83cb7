"""Fig. 11: multi-programmed performance, Hawkeye baseline LLC policy.

Schemes: inclusive, non-inclusive, QBS, SHARP and the two ZIV designs for
RRPV-graded policies (MRNotInPrC, MRLikelyDead).  Normalised to I-LRU @
256 KB (the same universal baseline as every other figure).

Expected shape (paper): ZIV-MRLikelyDead best among inclusive designs and
close to (but not above) NI at 256/512 KB, roughly a percent above
MRNotInPrC; QBS/SHARP clearly behind.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.experiments.fig08_lru_perf import scheme_grid, speedup_table

SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("qbs", "QBS"),
    ("sharp", "SHARP"),
    ("ziv:maxrrpvnotinprc", "ZIV-MRNotInPrC"),
    ("ziv:mrlikelydead", "ZIV-MRLikelyDead"),
)


def grid(scale=None) -> dict:
    return scheme_grid(scale, "hawkeye", SCHEMES)


def table(runs: dict) -> FigureResult:
    return speedup_table(
        runs, SCHEMES, "Fig.11",
        "Multi-programmed speedup, Hawkeye baseline (norm. I-LRU 256KB)",
    )
