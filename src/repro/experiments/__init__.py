"""One module per paper figure/table (see DESIGN.md section 5), plus the
ablation studies of :mod:`repro.experiments.ablations` (section 7).

Each table declares its runs once, as ``grid(scale)`` (an ordered
``label -> list[RunRecipe]`` dict), and formats their results with
``table(runs) -> FigureResult``.  :data:`TABLES` holds every such pair
by name, in print order.  :func:`run_figure` resolves one grid with one
``run_many`` call and returns its table; ``python -m repro figure
<name>`` prints it, ``scripts/run_all_experiments.py`` prints them all,
and ``benchmarks/bench_figures.py`` runs one pytest-benchmark target per
name.
"""

from repro.experiments import (
    ablations,
    fig01_motivation,
    fig02_inclusion_victims,
    fig03_llc_misses,
    fig04_l2_misses,
    fig08_lru_perf,
    fig09_permix_lru,
    fig10_lru_misses,
    fig11_hawkeye_perf,
    fig12_permix_hawkeye,
    fig13_hawkeye_misses,
    fig14_llc_capacity,
    fig15_sparse_dir,
    fig16_mt_lru,
    fig17_mt_hawkeye,
    fig18_reloc_intervals,
    fig19_energy,
    table1,
)
from repro.experiments.common import (
    SCALES,
    FigureResult,
    Scale,
    clear_caches,
    get_scale,
    mix_population,
    mt_workload,
    resolve,
)

#: Every table, in print order: name -> ``(grid, table)``.  The paper's
#: figures and tables come first, each named after its module; the
#: ablation studies follow.
TABLES = {
    module.__name__.rpartition(".")[2]: (module.grid, module.table)
    for module in (
        table1, fig01_motivation, fig02_inclusion_victims, fig03_llc_misses,
        fig04_l2_misses, fig08_lru_perf, fig09_permix_lru, fig10_lru_misses,
        fig11_hawkeye_perf, fig12_permix_hawkeye, fig13_hawkeye_misses,
        fig14_llc_capacity, fig15_sparse_dir, fig16_mt_lru, fig17_mt_hawkeye,
        fig18_reloc_intervals, fig19_energy,
    )
}
TABLES.update(
    property_ladder=(ablations.property_ladder_grid,
                     ablations.property_ladder_table),
    round_robin=(ablations.round_robin_grid, ablations.round_robin_table),
    char_threshold=(ablations.char_threshold_grid,
                    ablations.char_threshold_table),
    oracle_gap=(ablations.oracle_gap_grid, ablations.oracle_gap_table),
    tla_family=(ablations.tla_family_grid, ablations.tla_family_table),
    penalty_sensitivity=(ablations.penalty_sensitivity_grid,
                         ablations.penalty_sensitivity_table),
    prefetch_interplay=(ablations.prefetch_interplay_grid,
                        ablations.prefetch_interplay_table),
)

__all__ = [
    "SCALES",
    "Scale",
    "FigureResult",
    "clear_caches",
    "get_scale",
    "mix_population",
    "mt_workload",
    "resolve",
    "TABLES",
    "run_figure",
]


def run_figure(name: str, scale=None, heartbeat=None) -> FigureResult:
    """Resolve the grid of table ``name`` and return its table.
    ``heartbeat`` gets one :class:`~repro.sim.telemetry.RunProgress` per
    run (see :func:`repro.sim.parallel.run_many`)."""
    if name not in TABLES:
        raise ValueError(f"unknown figure {name!r}; known: {list(TABLES)}")
    grid, table = TABLES[name]
    return table(resolve(grid(scale), heartbeat))
