"""Fig. 4: normalised L2 miss counts for the motivation configurations.

Expected shape (paper): NI's L2 misses are independent of the LLC policy;
I's L2 misses exceed NI's by the inclusion-victim volume, so I-Hawkeye
shows the largest counts.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.experiments.fig01_motivation import CONFIGS, L2_POINTS
from repro.experiments.fig01_motivation import grid  # noqa: F401  (same grid)
from repro.sim.metrics import normalized_counts


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.4",
        title="Normalised L2 miss count (norm. to I-LRU 256KB)",
        columns=["l2", "config", "norm_l2_misses"],
    )
    for l2 in L2_POINTS:
        for _scheme, _policy, label in CONFIGS:
            fig.add(l2, label, normalized_counts(
                runs["baseline"], runs[l2, label], "l2_misses"
            ))
    return fig
