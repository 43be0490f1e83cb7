"""Fig. 17: multi-threaded workloads, Hawkeye baseline.

Expected shape (paper): both ZIV designs close to NI; QBS and SHARP fall
*below* the inclusive baseline on facesim/vips -- those apps have heavy
LLC reuse and QBS/SHARP sacrifice LLC hits to protect privately cached
blocks.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.experiments.fig16_mt_lru import mt_grid, mt_table

SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("qbs", "QBS"),
    ("sharp", "SHARP"),
    ("ziv:maxrrpvnotinprc", "ZIV-MRNotInPrC"),
    ("ziv:mrlikelydead", "ZIV-MRLikelyDead"),
)


def grid(scale=None) -> dict:
    return mt_grid(scale, "hawkeye", SCHEMES)


def table(runs: dict) -> FigureResult:
    return mt_table(runs, "hawkeye", SCHEMES, "Fig.17")
