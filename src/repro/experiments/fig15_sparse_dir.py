"""Fig. 15: sensitivity to sparse-directory size (Hawkeye, 256 KB L2).

Directory provisioning swept from 2x down to 1/4x the aggregate L2 tags,
under the traditional MESI protocol (left half) and the ZeroDEV protocol
(right half), for the baseline inclusive LLC, the non-inclusive LLC and
ZIV-MRLikelyDead.

Expected shape (paper): under MESI all three degrade as the directory
shrinks (back-invalidations from directory evictions), with NI losing its
edge over I while ZIV keeps tracking NI; under ZeroDEV performance is
nearly invariant to directory size.
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

MODES = ("mesi", "zerodev")
FACTORS = (2.0, 1.0, 0.5, 0.25)
SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("ziv:mrlikelydead", "ZIV-MRLikelyDead"),
)


def grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for mode in MODES:
        for factor in FACTORS:
            for scheme, label in SCHEMES:
                out[mode, factor, label] = [
                    make_recipe(
                        wl,
                        scheme,
                        "hawkeye",
                        l2="256KB",
                        directory_mode=mode,
                        directory_factor=factor,
                    )
                    for wl in mixes
                ]
    return out


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.15",
        title="Sparse-directory size sensitivity, Hawkeye + 256KB L2",
        columns=["protocol", "dir_factor", "scheme", "speedup",
                 "dir_evictions"],
    )
    for mode in MODES:
        for factor in FACTORS:
            for _scheme, label in SCHEMES:
                results = runs[mode, factor, label]
                s = speedup_summary(
                    normalized_speedups(runs["baseline"], results))
                dev = sum(
                    r.stats.directory_evictions + r.stats.directory_spills
                    for r in results
                )
                fig.add(mode, factor, label, s["mean"], dev)
    return fig
