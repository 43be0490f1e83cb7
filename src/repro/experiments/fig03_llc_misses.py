"""Fig. 3: normalised LLC miss counts for the motivation configurations.

Expected shape (paper): NI misses drop slightly with larger L2; I misses
exceed NI, more so under Hawkeye (inclusion victims turn private-cache
hits into LLC misses).
"""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.experiments.fig01_motivation import CONFIGS, L2_POINTS
from repro.experiments.fig01_motivation import grid  # noqa: F401  (same grid)
from repro.sim.metrics import normalized_counts


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.3",
        title="Normalised LLC miss count (norm. to I-LRU 256KB)",
        columns=["l2", "config", "norm_llc_misses"],
    )
    for l2 in L2_POINTS:
        for _scheme, _policy, label in CONFIGS:
            fig.add(l2, label, normalized_counts(
                runs["baseline"], runs[l2, label], "llc_misses"
            ))
    return fig
