"""Ablation studies of the ZIV design choices (DESIGN.md §7).

Not figures from the paper -- these probe the design decisions the paper
argues for:

* **Property ladder**: all five ZIV variants under one configuration; the
  relocation-set property is "the primary performance determinant"
  (paper III-G).
* **Round-robin nextRS** vs a fixed lowest-set-bit choice: the paper
  claims round-robin matters for spreading relocation load uniformly.
* **CHAR dynamic d** vs fixed thresholds: the adaptation the paper adds to
  CHAR (III-D6).

Like the figures, each of these three studies is a ``grid(scale)`` /
``table(runs)`` pair (:data:`STUDIES`), and so is the oracle-gap study
(:func:`run_oracle_gap`), which ``benchmarks/bench_ablation_tla_oracle.py``
runs.
"""

from __future__ import annotations

from repro.experiments.common import (
    FigureResult,
    baseline_recipes,
    get_scale,
    mix_population,
    resolve,
    speedups_vs_baseline,
)
from repro.params import CHARParams, scaled_config
from repro.sim.parallel import make_recipe

LADDER = (
    ("lru", "ziv:notinprc"),
    ("lru", "ziv:lrunotinprc"),
    ("lru", "ziv:likelydead"),
    ("hawkeye", "ziv:maxrrpvnotinprc"),
    ("hawkeye", "ziv:mrlikelydead"),
)
NEXT_RS = ((True, "round-robin"), (False, "lowest-bit"))
CHAR_VARIANTS = (
    ("dynamic(6->1)", None),
    ("fixed d=6", CHARParams(initial_d=6, min_d=6)),
    ("fixed d=3", CHARParams(initial_d=3, min_d=3)),
    ("fixed d=1", CHARParams(initial_d=1, min_d=1)),
)


def property_ladder_grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for policy, scheme in LADDER:
        out[policy, scheme] = [
            make_recipe(wl, scheme, policy, l2="512KB") for wl in mixes
        ]
    return out


def property_ladder_table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Ablation-A",
        title="ZIV property ladder @512KB (norm. I-LRU 256KB)",
        columns=["policy", "property", "speedup", "relocations", "same_set"],
    )
    for policy, scheme in LADDER:
        results = runs[policy, scheme]
        s = speedups_vs_baseline(runs["baseline"], results)
        fig.add(
            policy,
            scheme.split(":")[1],
            s["mean"],
            sum(r.stats.relocations for r in results),
            sum(r.stats.relocation_same_set for r in results),
        )
    return fig


def round_robin_grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for rr, label in NEXT_RS:
        out[label] = [
            make_recipe(
                wl,
                "ziv:mrlikelydead",
                "hawkeye",
                l2="512KB",
                scheme_kwargs={"round_robin": rr},
            )
            for wl in mixes
        ]
    return out


def round_robin_table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Ablation-B",
        title="Round-robin nextRS vs lowest-set-bit @512KB, Hawkeye",
        columns=["nextRS", "speedup", "relocations"],
    )
    for _rr, label in NEXT_RS:
        results = runs[label]
        s = speedups_vs_baseline(runs["baseline"], results)
        fig.add(label, s["mean"], sum(r.stats.relocations for r in results))
    return fig


def char_threshold_grid(scale=None) -> dict:
    """Fixed-d CHAR variants vs the paper's dynamic d (init 6, min 1)."""
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for label, char_params in CHAR_VARIANTS:
        cfg = scaled_config("512KB")
        if char_params is not None:
            cfg = cfg.replace(char=char_params)
        out[label] = [
            make_recipe(wl, "ziv:likelydead", "lru", config=cfg)
            for wl in mixes
        ]
    return out


def char_threshold_table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Ablation-C",
        title="CHAR threshold dynamics @512KB, LRU + ZIV-LikelyDead",
        columns=["d_policy", "speedup", "dead_hints_relocations"],
    )
    for label, _char_params in CHAR_VARIANTS:
        results = runs[label]
        s = speedups_vs_baseline(runs["baseline"], results)
        fig.add(label, s["mean"], sum(r.stats.relocations for r in results))
    return fig


#: The studies ``scripts/run_all_experiments.py`` prints, in order:
#: name -> ``(grid, table)``.
STUDIES = {
    "property_ladder": (property_ladder_grid, property_ladder_table),
    "round_robin": (round_robin_grid, round_robin_table),
    "char_threshold": (char_threshold_grid, char_threshold_table),
}


def run_property_ladder(scale=None) -> FigureResult:
    return property_ladder_table(resolve(property_ladder_grid(scale)))


def run_round_robin(scale=None) -> FigureResult:
    return round_robin_table(resolve(round_robin_grid(scale)))


def run_char_threshold(scale=None) -> FigureResult:
    return char_threshold_table(resolve(char_threshold_grid(scale)))


#: The oracle-gap study's designs, the oracle first: all under LRU.
ORACLE_GAP = ("ziv:oracle", "ziv:notinprc", "ziv:likelydead")


def oracle_gap_grid(scale=None) -> dict:
    """Every design of :data:`ORACLE_GAP` on every mix, lock-step (the
    oracle's next-use stream is the lock-step one)."""
    mixes = mix_population(get_scale(scale))
    return {
        scheme: [
            make_recipe(wl, scheme, "lru", l2="512KB", scheduling="lockstep")
            for wl in mixes
        ]
        for scheme in ORACLE_GAP
    }


def oracle_gap_table(runs: dict) -> FigureResult:
    """How close do the realisable relocation properties come to the
    oracle-optimal relocation victim (paper Section VI future work)?
    Lock-step carries no timing, so the designs compare by LLC misses,
    normalised to the oracle design."""
    fig = FigureResult(
        figure="Ablation-D",
        title="Gap to the oracle relocation victim @512KB, LRU (lockstep)",
        columns=["design", "llc_misses", "vs_oracle"],
    )
    base = sum(r.stats.llc_misses for r in runs[ORACLE_GAP[0]])
    for scheme in ORACLE_GAP:
        misses = sum(r.stats.llc_misses for r in runs[scheme])
        fig.add(scheme, misses, misses / base if base else 0.0)
    return fig


def run_oracle_gap(scale=None) -> FigureResult:
    return oracle_gap_table(resolve(oracle_gap_grid(scale)))
