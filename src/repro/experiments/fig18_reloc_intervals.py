"""Fig. 18: cumulative distribution of inter-relocation intervals.

Per-bank intervals between consecutive relocations (in cycles, log2
buckets) over the whole workload population at the 512 KB L2 point, for
the three headline ZIV designs.

Expected shape (paper): almost no interval falls below the 3-cycle nextRS
recomputation latency, and the Hawkeye-based designs (MRNotInPrC,
MRLikelyDead) have their distribution knee far to the left of the
LRU-based LikelyDead design (more frequent relocations).
"""

from __future__ import annotations

from repro.experiments.common import (
    FigureResult,
    get_scale,
    mix_population,
    mt_workload,
)
from repro.sim.parallel import make_recipe
from repro.workloads.multithreaded import MT_APP_NAMES

DESIGNS = (
    ("ziv:likelydead", "lru", "LikelyDead(LRU)"),
    ("ziv:maxrrpvnotinprc", "hawkeye", "MRNotInPrC(HK)"),
    ("ziv:mrlikelydead", "hawkeye", "MRLikelyDead(HK)"),
)


def grid(scale=None) -> dict:
    scale = get_scale(scale)
    workloads = list(mix_population(scale))
    workloads += [
        mt_workload(app, scale, cores=8)
        for app in MT_APP_NAMES
        if app != "tpce"
    ]
    return {
        label: [
            make_recipe(wl, scheme, policy, l2="512KB") for wl in workloads
        ]
        for scheme, policy, label in DESIGNS
    }


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.18",
        title="CDF of relocation intervals (log2 cycles), 512KB L2",
        columns=["design", "log2_interval", "cumulative_fraction"],
    )
    for label, results in runs.items():
        hist: dict[int, int] = {}
        short = 0
        total = 0
        for r in results:
            for bucket, n in r.scheme_stats["interval_histogram"].items():
                hist[bucket] = hist.get(bucket, 0) + n
            short += r.scheme_stats["short_intervals"]
            total += r.scheme_stats["reloc_intervals"]
        acc = 0
        for bucket in sorted(hist):
            acc += hist[bucket]
            fig.add(label, bucket, acc / total if total else 0.0)
        if total:
            fig.notes += (
                f"{label}: {short / total:.4%} of intervals below the "
                f"3-cycle nextRS latency; "
            )
    return fig
