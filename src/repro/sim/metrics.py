"""Performance metrics and normalisation.

The paper reports speedups normalised to the configuration with a 256 KB
L2 cache and an inclusive LLC running LRU (I-LRU).  For multi-programmed
mixes the per-mix speedup is the geometric mean of the per-core execution-
time ratios; figures then show the average (geometric mean) and the
min/max range across mixes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.sim.engine import SimResult


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def per_core_speedups(baseline: SimResult, candidate: SimResult) -> list[float]:
    """Per-core speedup = baseline core cycles / candidate core cycles."""
    out = []
    for b, c in zip(baseline.stats.cores, candidate.stats.cores):
        if b.cycles and c.cycles:
            out.append(b.cycles / c.cycles)
    return out


def mix_speedup(baseline: SimResult, candidate: SimResult) -> float:
    """The per-mix speedup: geometric mean over cores."""
    return geomean(per_core_speedups(baseline, candidate))


def weighted_speedup(baseline: SimResult, candidate: SimResult) -> float:
    """Sum of per-core IPC ratios (an alternative metric)."""
    total = 0.0
    for b, c in zip(baseline.stats.cores, candidate.stats.cores):
        if b.cycles and c.cycles:
            total += (b.instructions / c.cycles) / (b.instructions / b.cycles)
    return total


def normalized_speedups(
    baselines: Sequence[SimResult], candidates: Sequence[SimResult]
) -> list[float]:
    """Per-mix speedups of paired (baseline, candidate) runs."""
    if len(baselines) != len(candidates):
        raise ValueError("baseline/candidate run counts differ")
    return [mix_speedup(b, c) for b, c in zip(baselines, candidates)]


def speedup_summary(speedups: Sequence[float]) -> dict[str, float]:
    """Mean and range, as annotated on the paper's bars."""
    if not speedups:
        return {"mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": geomean(speedups),
        "min": min(speedups),
        "max": max(speedups),
    }


def normalized_counts(
    baselines: Sequence[SimResult],
    candidates: Sequence[SimResult],
    counter: str,
) -> float:
    """Ratio of summed counters (e.g. "llc_misses") across paired runs,
    candidate / baseline -- the normalisation used in Figs. 2-4, 10, 13."""
    base = sum(getattr(r.stats, counter) for r in baselines)
    cand = sum(getattr(r.stats, counter) for r in candidates)
    return cand / base if base else 0.0
