"""Ablation studies of the ZIV design choices (DESIGN.md §7).

Not figures from the paper -- these probe the design decisions the paper
argues for and the claims it makes in passing:

* **A. Property ladder**: all five ZIV variants under one configuration;
  the relocation-set property is "the primary performance determinant"
  (paper III-G).
* **B. Round-robin nextRS** vs a fixed lowest-set-bit choice: the paper
  claims round-robin matters for spreading relocation load uniformly.
* **C. CHAR dynamic d** vs fixed thresholds: the adaptation the paper
  adds to CHAR (III-D6).
* **D. Oracle gap**: the realisable properties against the
  oracle-optimal relocation victim (paper Section VI future work).
* **E. TLA family**: TLH, ECI and QBS against ZIV.
* **F. Relocated-access penalty**: nullifying it changes performance by
  "a negligible amount" (paper V-B).
* **G. Prefetch interplay**: inclusion victims with the stride
  prefetcher off and on.

Like the figures, each study is a ``grid(scale)`` / ``table(runs)``
pair, reached by name through :data:`repro.experiments.TABLES`.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.common import (
    FigureResult,
    baseline_recipes,
    get_scale,
    mix_population,
    mt_workload,
)
from repro.params import CHARParams, PrefetchParams, scaled_config
from repro.sim.metrics import (
    geomean,
    mix_speedup,
    normalized_speedups,
    speedup_summary,
)
from repro.sim.parallel import make_recipe
from repro.workloads.multithreaded import MT_APP_NAMES

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
        s = speedup_summary(normalized_speedups(runs["baseline"], results))
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
        s = speedup_summary(normalized_speedups(runs["baseline"], results))
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
        s = speedup_summary(normalized_speedups(runs["baseline"], results))
        fig.add(label, s["mean"], sum(r.stats.relocations for r in results))
    return fig


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


#: Ablation-E's designs under LRU: the TLA family (TLH, ECI, QBS; Jaleel
#: et al., MICRO 2010) between the inclusive and non-inclusive bounds.
TLA_SCHEMES = ("inclusive", "tlh", "eci", "qbs", "ziv:likelydead",
               "noninclusive")


def tla_family_grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    out = {"baseline": baseline_recipes(mixes)}
    for scheme in TLA_SCHEMES:
        out[scheme] = [
            make_recipe(wl, scheme, "lru", l2="512KB") for wl in mixes
        ]
    return out


def tla_family_table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Ablation-E",
        title="TLA family vs ZIV @512KB, LRU (norm. I-LRU 256KB)",
        columns=["scheme", "speedup", "incl_victims"],
    )
    for scheme in TLA_SCHEMES:
        results = runs[scheme]
        s = speedup_summary(normalized_speedups(runs["baseline"], results))
        fig.add(scheme, s["mean"],
                sum(r.stats.inclusion_victims_llc for r in results))
    return fig


def penalty_sensitivity_grid(scale=None) -> dict:
    """ZIV-MRLikelyDead on each 8-core multi-threaded app (TPC-E runs on
    Fig. 16's 16-core machine), with the relocated-access penalty as
    configured and nullified (paper V-B)."""
    scale = get_scale(scale)
    normal = scaled_config("512KB")
    nullified = normal.replace(
        core=dataclasses.replace(normal.core, relocated_access_penalty=0)
    )
    return {
        app: [
            make_recipe(mt_workload(app, scale, cores=8), "ziv:mrlikelydead",
                        "hawkeye", config=cfg)
            for cfg in (normal, nullified)
        ]
        for app in MT_APP_NAMES
        if app != "tpce"
    }


def penalty_sensitivity_table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Ablation-F",
        title="Relocated-access penalty: 2 cycles vs nullified (MT apps)",
        columns=["app", "speedup_nullified_vs_normal", "relocated_hits"],
    )
    deltas = []
    for app, (normal, nullified) in runs.items():
        sp = mix_speedup(normal, nullified)
        deltas.append(sp)
        fig.add(app, sp, normal.stats.relocated_hits)
    fig.notes = (
        f"geomean impact of nullifying the penalty: {geomean(deltas):.4f} "
        "(paper: negligible)"
    )
    return fig


#: Ablation-G's designs under Hawkeye, each with the stride prefetcher
#: off and on.
PREFETCH_SCHEMES = ("inclusive", "noninclusive", "ziv:mrlikelydead")


def prefetch_interplay_grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    off = scaled_config("512KB")
    stride = off.replace(prefetch=PrefetchParams(kind="stride", degree=2))
    return {
        (pf, scheme): [
            make_recipe(wl, scheme, "hawkeye", config=cfg) for wl in mixes
        ]
        for pf, cfg in (("off", off), ("stride", stride))
        for scheme in PREFETCH_SCHEMES
    }


def prefetch_interplay_table(runs: dict) -> FigureResult:
    """Backes & Jimenez (MEMSYS 2019, the paper's [1]): LLC policies lose
    their gains in inclusive LLCs to inclusion victims, and prefetching
    adds to the pressure.  The baseline is inclusive, prefetcher off."""
    fig = FigureResult(
        figure="Ablation-G",
        title="Inclusion x prefetching @512KB, Hawkeye (norm. I, pf off)",
        columns=["prefetch", "scheme", "speedup", "incl_victims",
                 "pf_useful_rate"],
    )
    baseline = runs["off", "inclusive"]
    for (pf, scheme), results in runs.items():
        s = speedup_summary(normalized_speedups(baseline, results))
        issued = sum(r.stats.prefetches_issued for r in results)
        useful = sum(r.stats.prefetch_useful for r in results)
        fig.add(
            pf,
            scheme,
            s["mean"],
            sum(r.stats.inclusion_victims_llc for r in results),
            useful / issued if issued else 0.0,
        )
    return fig
