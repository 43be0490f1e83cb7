"""Shared infrastructure for the per-figure experiment modules.

Every figure module declares its runs once, as ``grid(scale)``: an
ordered ``label -> list[RunRecipe]`` dict built with
:func:`~repro.sim.parallel.make_recipe`.  ``table(runs)`` formats the
results for the same labels into a :class:`FigureResult` and resolves
nothing itself; :func:`resolve` turns a grid into those results with one
:func:`~repro.sim.parallel.run_many` call.  A *scale* selects how many
mixes and how many accesses per core the experiment uses: ``"quick"``
keeps a full-figure regeneration in benchmark-suite territory,
``"standard"`` tightens the statistics, and ``"full"`` mirrors the
paper's 72-mix population (slow in pure Python).

Simulation results are resolved through the layered cache of
:mod:`repro.sim.parallel`: an in-process memo (the figures overlap
heavily -- the I-LRU-256KB baseline appears in every normalisation) that
reads through to the persistent on-disk result cache, so a recipe that
completed in *any* session is never simulated again.  Because the grids
are plain data, ``scripts/run_all_experiments.py`` submits the union of
every grid to one ``run_many`` call and fans out over cores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.sim.parallel import RunRecipe, make_recipe, run_many
from repro.sim.trace import Workload
from repro.workloads.mixes import heterogeneous_mixes, homogeneous_mixes
from repro.workloads.multithreaded import multithreaded_workload


@dataclass(frozen=True)
class Scale:
    """Workload sizing for one experiment fidelity level."""

    homo_mixes: int
    hetero_mixes: int
    accesses: int
    mt_accesses: int


SCALES = {
    "smoke": Scale(2, 2, 600, 1200),
    "quick": Scale(4, 4, 1500, 4000),
    "standard": Scale(12, 12, 3000, 8000),
    "full": Scale(36, 36, 8000, 20000),
}


def get_scale(scale: str | Scale | None = None) -> Scale:
    """Resolve a scale; the REPRO_SCALE environment variable overrides the
    default ("quick")."""
    if isinstance(scale, Scale):
        return scale
    name = scale or os.environ.get("REPRO_SCALE", "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; known: {sorted(SCALES)}"
        ) from None


@dataclass
class FigureResult:
    """The rows a figure/table prints: a direct analogue of the paper's
    plotted series."""

    figure: str
    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: str = ""

    def add(self, *row) -> None:
        self.rows.append(tuple(row))

    def format_table(self) -> str:
        widths = [len(c) for c in self.columns]
        str_rows = []
        for row in self.rows:
            cells = [
                f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
            ]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            str_rows.append(cells)
        lines = [f"== {self.figure}: {self.title} =="]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for cells in str_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def print_table(self) -> None:
        print(self.format_table())

    def row_map(self, key_cols: int = 2) -> dict:
        """Dict keyed by the first ``key_cols`` columns of each row."""
        return {row[:key_cols]: row[key_cols:] for row in self.rows}


# ---------------------------------------------------------------------------
# Workload and simulation caches
# ---------------------------------------------------------------------------

_MIX_CACHE: dict = {}


def clear_caches() -> None:
    """Drop the in-process workload and result memos (the persistent disk
    cache is untouched; use ``python -m repro cache clear`` for that)."""
    from repro.sim.parallel import clear_memo

    _MIX_CACHE.clear()
    clear_memo()


def mix_population(scale: Scale, cores: int = 8, seed: int = 7) -> list[Workload]:
    """The multi-programmed mix population at this scale: a spread of
    homogeneous mixes plus balanced heterogeneous mixes."""
    key = ("mp", scale, cores, seed)
    if key not in _MIX_CACHE:
        homo_all = homogeneous_mixes(
            cores=cores, n_accesses=scale.accesses, seed=seed
        )
        step = max(1, len(homo_all) // scale.homo_mixes)
        homo = homo_all[::step][: scale.homo_mixes]
        hetero = heterogeneous_mixes(
            n_mixes=scale.hetero_mixes,
            cores=cores,
            n_accesses=scale.accesses,
            seed=seed,
        )
        _MIX_CACHE[key] = homo + hetero
    return _MIX_CACHE[key]


def mt_workload(app: str, scale: Scale, cores: int = 8, seed: int = 7) -> Workload:
    key = ("mt", app, scale, cores, seed)
    if key not in _MIX_CACHE:
        _MIX_CACHE[key] = multithreaded_workload(
            app, cores=cores, n_accesses=scale.mt_accesses, seed=seed
        )
    return _MIX_CACHE[key]


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def baseline_recipes(mixes: list[Workload]) -> list[RunRecipe]:
    """The universal normalisation baseline: I-LRU with the 256KB L2."""
    return [make_recipe(wl, "inclusive", "lru", l2="256KB") for wl in mixes]


def resolve(grid: dict, heartbeat=None) -> dict:
    """Resolve every recipe of ``grid`` with one
    :func:`~repro.sim.parallel.run_many` call (memo, then disk cache,
    then a fresh run; ``heartbeat`` gets one progress report per recipe)
    and return the results under the same labels, in the same order."""
    results = iter(run_many(
        [recipe for recipes in grid.values() for recipe in recipes],
        heartbeat=heartbeat,
    ))
    return {
        label: [next(results) for _ in recipes]
        for label, recipes in grid.items()
    }

