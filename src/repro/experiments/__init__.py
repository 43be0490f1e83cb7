"""One module per paper figure/table (see DESIGN.md section 5).

Each module declares its runs once, as ``grid(scale)`` (an ordered
``label -> list[RunRecipe]`` dict), and formats their results with
``table(runs) -> FigureResult``.  :func:`run_figure` resolves the grid
with one ``run_many`` call and returns the table; ``python -m repro
figure <name>`` prints it, and the ``benchmarks/`` directory wraps it in
pytest-benchmark targets.
"""

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

ALL_FIGURES = (
    "table1",
    "fig01_motivation",
    "fig02_inclusion_victims",
    "fig03_llc_misses",
    "fig04_l2_misses",
    "fig08_lru_perf",
    "fig09_permix_lru",
    "fig10_lru_misses",
    "fig11_hawkeye_perf",
    "fig12_permix_hawkeye",
    "fig13_hawkeye_misses",
    "fig14_llc_capacity",
    "fig15_sparse_dir",
    "fig16_mt_lru",
    "fig17_mt_hawkeye",
    "fig18_reloc_intervals",
    "fig19_energy",
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
    "ALL_FIGURES",
    "run_figure",
]


def run_figure(name: str, scale=None, heartbeat=None) -> FigureResult:
    """Resolve one figure's grid and return its table.  ``heartbeat``
    gets one :class:`~repro.sim.telemetry.RunProgress` per run (see
    :func:`repro.sim.parallel.run_many`)."""
    import importlib

    if name not in ALL_FIGURES:
        raise ValueError(f"unknown figure {name!r}; known: {ALL_FIGURES}")
    mod = importlib.import_module(f"repro.experiments.{name}")
    return mod.table(resolve(mod.grid(scale), heartbeat))
