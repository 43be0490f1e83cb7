"""Synthetic multi-threaded workloads (paper Section IV / V-B).

The paper evaluates canneal, facesim, vips (PARSEC), 316.applu (SPEC OMP
2001) on the 8-core machine, and TPC-E on MySQL on a 128-core machine.  We
generate shared-address-space traces whose first-order characteristics
match what the paper relies on:

* ``canneal`` -- random swaps over a large shared graph: LLC-thrashing,
  low inclusion-victim sensitivity (its blocks rarely live in the L2).
* ``facesim`` / ``vips`` -- streaming frame pipelines with heavy *LLC*
  reuse of shared data but little L2 residency: baseline inclusive and
  non-inclusive perform alike, while QBS/SHARP sacrifice LLC hits and
  lose (the paper's Fig. 17 observation).
* ``applu`` -- blocked circular sweeps over shared arrays plus hot private
  tiles: high sensitivity; ZIV-LikelyDead beats non-inclusive (Fig. 16).
* ``tpce`` -- a scaled server profile: hot shared index blocks, random row
  reads over a large table, and per-thread private working sets; run on
  the scaled many-core configuration.
"""

from __future__ import annotations

import random

from repro.sim.trace import CoreTrace, Workload
from repro.workloads.patterns import make_pattern
from repro.workloads.profiles import _fnv1a, draw_columns, region_addresses

MT_APP_NAMES = ("canneal", "facesim", "vips", "applu", "tpce")

#: Per-app recipe: (shared regions, private regions, write_ratio, mean_gap)
#: Regions are (kind, size_blocks, weight); weights are normalised across
#: shared+private together.  Private regions are replicated per thread.
_RECIPES = {
    "canneal": (
        (("random", 6144, 0.75),),
        (("hot", 20, 0.25),),
        0.25,
        5,
    ),
    "facesim": (
        (("circular", 896, 0.65),),
        (("streaming", 512, 0.20), ("hot", 24, 0.15)),
        0.30,
        4,
    ),
    "vips": (
        (("circular", 704, 0.55),),
        (("streaming", 768, 0.30), ("hot", 16, 0.15)),
        0.35,
        4,
    ),
    "applu": (
        (("circular", 1152, 0.45),),
        (("circular", 96, 0.40), ("hot", 24, 0.15)),
        0.30,
        5,
    ),
    "tpce": (
        (("hot", 192, 0.30), ("random", 8192, 0.35)),
        (("hot", 48, 0.20), ("streaming", 128, 0.15)),
        0.20,
        6,
    ),
}

_SHARED_BASE = 1 << 22
_PRIVATE_STRIDE = 1 << 24


def multithreaded_workload(
    app: str, cores: int = 8, n_accesses: int = 20000, seed: int = 0
) -> Workload:
    """Build the shared-memory workload ``app`` for ``cores`` threads."""
    try:
        shared_regions, private_regions, write_ratio, mean_gap = _RECIPES[app]
    except KeyError:
        raise ValueError(
            f"unknown multi-threaded app {app!r}; known: {MT_APP_NAMES}"
        ) from None
    if n_accesses < 0:
        raise ValueError(f"n_accesses must be >= 0, got {n_accesses}")

    # Shared region layout is common to all threads; the randomised
    # placement emulates physical page allocation.
    layout_rng = random.Random(_fnv1a(app, seed, "layout"))
    shared_bases = []
    cursor = _SHARED_BASE + layout_rng.randrange(1 << 14)
    for kind, size, _w in shared_regions:
        shared_bases.append(cursor)
        cursor += size + 64 + layout_rng.randrange(512)

    traces = []
    for core in range(cores):
        rng = random.Random(_fnv1a(app, seed, core))
        patterns = []
        bases = []
        weights = []
        pc_pools = []
        for idx, (kind, size, weight) in enumerate(shared_regions):
            # Threads start at staggered phases of the shared pattern so
            # they are not artificially synchronised.
            pat = make_pattern(kind, size, seed=_fnv1a(app, seed, "sh", idx))
            pat.take(core * (size // max(1, cores)))
            patterns.append(pat)
            bases.append(shared_bases[idx])
            weights.append(weight)
            pc_pools.append(
                [_fnv1a("pc", app, "sh", idx, k) & 0x7FFFFFFF for k in range(4)]
            )
        cursor = (core + 1) * _PRIVATE_STRIDE + rng.randrange(1 << 14)
        for idx, (kind, size, weight) in enumerate(private_regions):
            patterns.append(
                make_pattern(kind, size, seed=_fnv1a(app, seed, core, idx))
            )
            bases.append(cursor)
            cursor += size + 64 + rng.randrange(512)
            weights.append(weight)
            pc_pools.append(
                [_fnv1a("pc", app, "pr", idx, k) & 0x7FFFFFFF for k in range(4)]
            )

        total_w = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total_w
            cumulative.append(acc)
        max_gap = max(1, 2 * mean_gap)
        gaps, writes, pcs, regions = draw_columns(
            rng, n_accesses, cumulative, write_ratio, pc_pools, max_gap,
            gap_first=True,
        )
        addrs = region_addresses(regions, patterns, bases)
        traces.append(CoreTrace.from_columns(gaps, addrs, writes, pcs,
                                             name=f"{app}-t{core}"))
    return Workload(traces, name=f"mt-{app}")
