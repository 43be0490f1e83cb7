"""Parameter-sweep utility.

A thin, deterministic grid runner over (configuration, scheme, policy)
combinations that returns tidy rows -- the plumbing every study in
``examples/`` and ``benchmarks/`` otherwise reimplements.  Unlike the
experiment modules (which mirror specific paper figures), this is the
general-purpose API a downstream user reaches for first.

Runs are resolved through :func:`repro.sim.parallel.run_many`: pass
``jobs=N`` to fan the grid out over ``N`` worker processes (``jobs<=0``
means one per CPU), with results merged back in grid order so the rows are
identical to a serial sweep.  Points are identified by their *recipe key*
(a content hash of configuration + scheme + policy + workload), so two
points that describe the same machine share one simulation regardless of
their labels -- including the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.params import SystemConfig
from repro.sim.engine import SimResult
from repro.sim.metrics import geomean, mix_speedup
from repro.sim.parallel import RunRecipe, make_recipe, run_many
from repro.sim.trace import Workload


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid."""

    label: str
    config: SystemConfig
    scheme: str
    policy: str = "lru"

    def recipe(self, workload: Workload) -> RunRecipe:
        # make_recipe resolves REPRO_AUDIT here, in the submitting
        # process: instrumentation is part of the cache key and must
        # never be re-read in a worker.
        return make_recipe(workload, self.scheme, policy=self.policy,
                           config=self.config)


@dataclass
class SweepRow:
    """Aggregated outcome of one sweep point over all workloads."""

    label: str
    scheme: str
    policy: str
    speedup: float
    speedup_min: float
    speedup_max: float
    llc_misses: int
    l2_misses: int
    inclusion_victims: int
    relocations: int
    results: list[SimResult]


def run_sweep(
    points: Sequence[SweepPoint],
    workloads: Sequence[Workload],
    baseline: Optional[SweepPoint] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> list[SweepRow]:
    """Run every point over every workload.

    ``baseline`` defaults to the first point; per-workload speedups are
    computed against the baseline's run of the same workload.  Any point
    whose recipe matches the baseline's (by content, not by object or
    label identity) reuses the baseline runs instead of re-simulating.
    ``jobs`` fans the whole grid out over worker processes.
    ``progress`` (if given) is called with each point's label as its
    run resolves.
    """
    if not points:
        raise ValueError("sweep needs at least one point")
    if not workloads:
        raise ValueError("sweep needs at least one workload")
    baseline = baseline or points[0]

    # One flat submission: baseline first, then every point x workload.
    # run_many dedups by recipe key, so a point sharing the baseline's
    # recipe (or another point's) costs nothing extra.
    recipes: list[RunRecipe] = [baseline.recipe(wl) for wl in workloads]
    labels: list[str] = [f"{baseline.label}: {wl.name}" for wl in workloads]
    for point in points:
        for wl in workloads:
            recipes.append(point.recipe(wl))
            labels.append(f"{point.label}: {wl.name}")
    heartbeat = (None if progress is None
                 else lambda beat: progress(beat.label))
    results = run_many(recipes, jobs=jobs, labels=labels,
                       heartbeat=heartbeat)

    n = len(workloads)
    base_runs = results[:n]
    rows = []
    for i, point in enumerate(points):
        runs = results[n * (i + 1):n * (i + 2)]
        speedups = [mix_speedup(b, r) for b, r in zip(base_runs, runs)]
        rows.append(
            SweepRow(
                label=point.label,
                scheme=point.scheme,
                policy=point.policy,
                speedup=geomean(speedups),
                speedup_min=min(speedups),
                speedup_max=max(speedups),
                llc_misses=sum(r.stats.llc_misses for r in runs),
                l2_misses=sum(r.stats.l2_misses for r in runs),
                inclusion_victims=sum(
                    r.stats.inclusion_victims_llc for r in runs
                ),
                relocations=sum(r.stats.relocations for r in runs),
                results=runs,
            )
        )
    return rows


def format_sweep(rows: Iterable[SweepRow]) -> str:
    header = (
        f"{'point':24s} {'speedup':>8s} {'min':>6s} {'max':>6s} "
        f"{'llc_miss':>9s} {'incl':>7s} {'reloc':>7s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:24s} {r.speedup:>8.3f} {r.speedup_min:>6.3f} "
            f"{r.speedup_max:>6.3f} {r.llc_misses:>9d} "
            f"{r.inclusion_victims:>7d} {r.relocations:>7d}"
        )
    return "\n".join(lines)
