"""Inclusion policy x prefetching interplay.

The paper cites Backes & Jimenez (MEMSYS 2019, [1]): recently proposed LLC
management policies deliver their gains in non-inclusive LLCs and suffer
in inclusive ones because of inclusion victims -- and prefetching
amplifies the pressure.  This bench runs the inclusive baseline, the
non-inclusive design and ZIV with the stride prefetcher on and off.
"""

from repro.experiments.common import (
    FigureResult,
    get_scale,
    mix_population,
    resolve,
)
from repro.params import PrefetchParams, scaled_config
from repro.sim.metrics import geomean, mix_speedup
from repro.sim.parallel import make_recipe

SCHEMES = ("inclusive", "noninclusive", "ziv:mrlikelydead")


def run_prefetch_interplay(scale=None) -> FigureResult:
    mixes = mix_population(get_scale(scale))
    base_cfg = scaled_config("512KB")
    prefetch = (
        ("off", base_cfg),
        ("stride", base_cfg.replace(
            prefetch=PrefetchParams(kind="stride", degree=2)
        )),
    )
    grid = {
        "baseline": [
            make_recipe(wl, "inclusive", "hawkeye", config=base_cfg)
            for wl in mixes
        ]
    }
    for pf, cfg in prefetch:
        for scheme in SCHEMES:
            grid[pf, scheme] = [
                make_recipe(wl, scheme, "hawkeye", config=cfg)
                for wl in mixes
            ]
    runs = resolve(grid)
    fig = FigureResult(
        figure="Ablation-G",
        title="Inclusion x prefetching @512KB, Hawkeye (norm. I, pf off)",
        columns=["prefetch", "scheme", "speedup", "incl_victims",
                 "pf_useful_rate"],
    )
    for pf, _cfg in prefetch:
        for scheme in SCHEMES:
            results = runs[pf, scheme]
            sp = geomean(
                mix_speedup(b, r) for b, r in zip(runs["baseline"], results)
            )
            victims = sum(r.stats.inclusion_victims_llc for r in results)
            issued = sum(r.stats.prefetches_issued for r in results)
            useful = sum(r.stats.prefetch_useful for r in results)
            fig.add(
                pf,
                scheme,
                sp,
                victims,
                useful / issued if issued else 0.0,
            )
    return fig


def test_ablation_prefetch_interplay(benchmark, scale):
    result = benchmark.pedantic(
        lambda: run_prefetch_interplay(scale), rounds=1, iterations=1
    )
    print()
    result.print_table()
    rows = result.row_map(2)
    # ZIV stays inclusion-victim-free even with the prefetcher on
    assert rows[("stride", "ziv:mrlikelydead")][1] == 0
    assert rows[("off", "ziv:mrlikelydead")][1] == 0
