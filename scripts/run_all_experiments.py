#!/usr/bin/env python3
"""Regenerate every paper figure and ablation study and dump the tables.

Usage:  REPRO_SCALE=standard python scripts/run_all_experiments.py \\
            [--jobs N] [outfile]

The tables are the entries of ``repro.experiments.TABLES``, printed in
its order; importing it imports every experiment module up front, so the
run is unaffected by concurrent edits to the working tree.  Every table
declares its runs as a grid, so the script submits the union of those
grids to ``run_many`` first -- fanned out over ``--jobs`` worker
processes (default: one per CPU) -- and each table then resolves its own
grid entirely from the result cache.  Total wall-clock is roughly the
longest individual simulation times (grid / cores), not the serial sum.
"""

import argparse
import os
import time

from repro.experiments import TABLES, resolve
from repro.sim.parallel import run_many


def collect_recipes(grids):
    """Union of the grids' recipes, deduped by recipe key but kept in
    first-seen order."""
    seen = set()
    recipes = []
    for grid in grids:
        for cell in grid.values():
            for recipe in cell:
                key = recipe.key()
                if key not in seen:
                    seen.add(key)
                    recipes.append(recipe)
    return recipes


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the up-front simulation fan-out "
             "(<=0, the default: one per CPU)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print a live progress line (completed/total, cache "
             "provenance, accesses/s, ETA) to stderr during the fan-out",
    )
    parser.add_argument("outfile", nargs="?",
                        default="docs/experiments_output.txt")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = os.environ.get("REPRO_SCALE", "standard")
    out_path = args.outfile
    t_start = time.time()

    grids = {name: grid(scale) for name, (grid, _table) in TABLES.items()}
    recipes = collect_recipes(grids.values())
    print(f"submitting {len(recipes)} unique simulations "
          f"(jobs={args.jobs if args.jobs > 0 else 'auto'})")
    if args.progress:
        from repro.sim.telemetry import ProgressPrinter

        printer = ProgressPrinter()
        run_many(recipes, jobs=args.jobs, heartbeat=printer)
        printer.done()
    else:
        run_many(recipes, jobs=args.jobs)
    print(f"simulations done in {time.time() - t_start:.0f}s; "
          f"formatting figures")
    with open(out_path, "w") as out:
        def emit(text=""):
            print(text)
            out.write(text + "\n")
            out.flush()

        emit(f"# ZIV reproduction: all figures at scale={scale}")
        emit()
        figures = {}
        for name, (_grid, table) in TABLES.items():
            t0 = time.time()
            figures[name] = fig = table(resolve(grids[name]))
            emit(fig.format_table())
            emit(f"[{name}: {time.time() - t0:.1f}s]")
            emit()
        # Shape-at-a-glance charts for the headline comparisons.
        from repro.experiments.ascii_chart import bar_chart

        for name in ("fig08_lru_perf", "fig11_hawkeye_perf"):
            emit(bar_chart(figures[name], value_col=2, baseline=1.0))
            emit()
        emit(f"total: {time.time() - t_start:.0f}s")


if __name__ == "__main__":
    main()
