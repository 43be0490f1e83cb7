"""The paper's title claim as an oracle that needs no second engine.

A ZIV LLC never back-invalidates a private cache when it evicts (zero
inclusion victims), and a ZeroDEV directory never does when it runs
out of entries.  When the cores' address spaces are disjoint there is
no coherence traffic either, so nothing outside a core touches its L1
and L2: each core's private hits and misses must equal those of a
1-core run of its trace alone.  The differential grid compares the
engines with each other and ``tests/test_golden.py`` with pinned
numbers; a model defect shared by both engines passes both, but not
this.  An inclusive LLC breaks the relation (its victims
back-invalidate), and the test checks that it does, so it cannot pass
vacuously.  arXiv 1307.6406 analyses such inclusive-hierarchy
relations under LLC replacement.

With shared data a second relation holds.  In lock-step scheduling the
global access order is fixed whatever the latencies, so under a ZIV LLC
(no inclusion victims) and a ZeroDEV directory (no directory victims)
what reaches a private cache is its core's own accesses plus the other
cores' coherence traffic, and that traffic is the same under a
non-inclusive LLC: each core's private counters must equal the
non-inclusive run's.  Shared blocks are what make relocated hits, so
only these cells see a relocated hit that skips its private fill.
"""

from __future__ import annotations

import functools

import pytest

from tests.test_differential import (
    STRESS_CONFIG,
    columns_workload,
    stress_workload,
)
from repro.params import fast_supports
from repro.sim.parallel import make_recipe
from repro.sim.trace import Workload

CONFIG = STRESS_CONFIG.replace(directory_mode="zerodev")

#: Every ZIV rule under the LLC policy it was designed for.
ZIV_CELLS = (
    ("ziv:notinprc", "lru"),
    ("ziv:lrunotinprc", "lru"),
    ("ziv:maxrrpvnotinprc", "srrip"),
    ("ziv:likelydead", "lru"),
    ("ziv:mrlikelydead", "hawkeye"),
)

ISOLATION_CELLS = [
    pytest.param(scheme, policy, scheduling, engine,
                 id=f"{scheme}-{policy}-{scheduling}-{engine}")
    for scheme, policy in ZIV_CELLS
    for scheduling in ("timing", "lockstep")
    for engine in ("object", "fast")
    if engine == "object" or fast_supports(CONFIG, scheme, policy)
]


@functools.lru_cache(maxsize=None)
def private_workload(cores: int = 4, n: int = 3000) -> Workload:
    """Half of each core's accesses go to its own 6-block hot region,
    half to a 256-block spray of its own 1024 blocks above it: the
    spray over-subscribes the 64-block LLC, and no block is shared."""
    def stream(core):
        hot = 4096 * (core + 1)
        spray = hot + 1024
        return lambda rng: (hot + rng.randrange(6) if rng.random() < 0.5
                            else spray + rng.randrange(256))

    return columns_workload(
        [(n, stream(core)) for core in range(cores)], "private", seed=0
    )


def private_counts(result, core: int) -> tuple:
    c = result.stats.cores[core]
    return (c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses)


@functools.lru_cache(maxsize=None)
def standalone(core: int) -> tuple:
    """Core ``core``'s private counters when its trace runs alone."""
    trace = list(private_workload())[core]
    recipe = make_recipe(Workload([trace], name=f"alone{core}"),
                         "noninclusive", config=CONFIG.replace(cores=1))
    return private_counts(recipe.execute(), 0)


def differing_cores(scheme, policy="lru", scheduling="timing",
                    engine="object") -> tuple[list[int], object]:
    """The cores whose private counters differ from their standalone
    run, and the shared run's result."""
    wl = private_workload()
    result = make_recipe(wl, scheme, policy=policy, scheduling=scheduling,
                         config=CONFIG.replace(engine=engine)).execute()
    return [core for core in range(wl.cores)
            if private_counts(result, core) != standalone(core)], result


@pytest.mark.parametrize("scheme,policy,scheduling,engine", ISOLATION_CELLS)
def test_ziv_isolates_every_core(scheme, policy, scheduling, engine):
    differ, result = differing_cores(scheme, policy, scheduling, engine)
    assert differ == [], f"cores {differ} saw another core's LLC evictions"
    assert result.stats.relocations > 0
    assert result.stats.inclusion_victims_llc == 0


def test_an_inclusive_llc_does_not_isolate():
    """The control: inclusion victims reach the private caches."""
    differ, result = differing_cores("inclusive")
    assert result.stats.inclusion_victims_llc > 0
    assert differ, "inclusive LRU matched every standalone run"


def test_a_noninclusive_llc_isolates():
    assert differing_cores("noninclusive")[0] == []


#: Every ZIV rule under its natural policy, each on every engine that
#: models it, plus the oracle design (object engine only).
SHARED_CELLS = [
    pytest.param(scheme, policy, engine, id=f"{scheme}-{policy}-{engine}")
    for scheme, policy in ZIV_CELLS + (("ziv:oracle", "lru"),)
    for engine in ("object", "fast")
    if engine == "object" or fast_supports(CONFIG, scheme, policy)
]


@functools.lru_cache(maxsize=None)
def shared_run(scheme, policy="lru", engine="object"):
    """The lock-step ZeroDEV run of :func:`stress_workload`, whose
    256-block spray every core shares."""
    return make_recipe(stress_workload(), scheme, policy=policy,
                       scheduling="lockstep",
                       config=CONFIG.replace(engine=engine)).execute()


def shared_differing_cores(scheme, policy="lru", engine="object") -> list:
    """The cores whose private counters differ from the non-inclusive
    lock-step run's."""
    result = shared_run(scheme, policy, engine)
    base = shared_run("noninclusive")
    return [core for core in range(len(result.stats.cores))
            if private_counts(result, core) != private_counts(base, core)]


@pytest.mark.parametrize("scheme,policy,engine", SHARED_CELLS)
def test_ziv_matches_noninclusive_on_shared_data(scheme, policy, engine):
    differ = shared_differing_cores(scheme, policy, engine)
    assert differ == [], f"cores {differ} differ from the non-inclusive run"
    assert shared_run(scheme, policy, engine).stats.inclusion_victims_llc == 0


def test_shared_cells_reach_relocated_hits():
    """Else the cells would pass a relocated hit that skips its fill."""
    hits = [shared_run(*cell.values).stats.relocated_hits
            for cell in SHARED_CELLS]
    assert sum(hits) > 0, hits


def test_an_inclusive_llc_differs_on_shared_data():
    """The control: inclusion victims reach the private caches."""
    assert shared_run("inclusive").stats.inclusion_victims_llc > 0
    assert shared_differing_cores("inclusive"), (
        "inclusive LRU matched the non-inclusive run on every core")
