"""Fig. 13: normalised LLC and L2 misses for the Hawkeye-baseline schemes
of Fig. 11 (miss-count companion, same expected trends as performance)."""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.experiments.fig10_lru_misses import miss_table
from repro.experiments.fig11_hawkeye_perf import SCHEMES
from repro.experiments.fig11_hawkeye_perf import grid  # noqa: F401  (same grid)


def table(runs: dict) -> FigureResult:
    return miss_table(
        runs, SCHEMES, "Fig.13",
        "Normalised LLC and L2 misses, Hawkeye baseline",
    )
