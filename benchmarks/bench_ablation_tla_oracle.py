"""Extra ablation benches: the full TLA family (TLH/ECI/QBS) and the gap
to the oracle-optimal relocation victim (paper Section VI future work)."""

from repro.experiments import ablations
from repro.experiments.common import (
    FigureResult,
    baseline_recipes,
    get_scale,
    mix_population,
    resolve,
    speedups_vs_baseline,
)
from repro.sim.parallel import make_recipe

TLA_SCHEMES = ("inclusive", "tlh", "eci", "qbs", "ziv:likelydead",
               "noninclusive")


def run_tla_family(scale=None) -> FigureResult:
    mixes = mix_population(get_scale(scale))
    grid = {"baseline": baseline_recipes(mixes)}
    for scheme in TLA_SCHEMES:
        grid[scheme] = [
            make_recipe(wl, scheme, "lru", l2="512KB") for wl in mixes
        ]
    runs = resolve(grid)
    fig = FigureResult(
        figure="Ablation-E",
        title="TLA family vs ZIV @512KB, LRU (norm. I-LRU 256KB)",
        columns=["scheme", "speedup", "incl_victims"],
    )
    for scheme in TLA_SCHEMES:
        s = speedups_vs_baseline(runs["baseline"], runs[scheme])
        fig.add(scheme, s["mean"],
                sum(r.stats.inclusion_victims_llc for r in runs[scheme]))
    return fig


def test_ablation_tla_family(benchmark, scale):
    result = benchmark.pedantic(
        lambda: run_tla_family(scale), rounds=1, iterations=1
    )
    print()
    result.print_table()
    assert result.rows
    by_scheme = {r[0]: r for r in result.rows}
    # the ZIV guarantee: zero inclusion victims; TLA schemes give none
    assert by_scheme["ziv:likelydead"][2] == 0


def test_ablation_oracle_gap(benchmark, scale):
    result = benchmark.pedantic(
        lambda: ablations.run_oracle_gap(scale), rounds=1, iterations=1
    )
    print()
    result.print_table()
    assert result.rows
