"""Differential oracle tests: the fast engine must be bit-identical.

Every cell of the supported scheme x policy grid runs through both the
object engine and the array-state engine; any field of the result --
per-core counters, aggregate statistics, cycle count, energy ledger,
scheme extras, audit outcome, telemetry stream -- that differs is a
failure.  A property-based layer then throws randomly generated traces
(shared blocks, mixed read/write, irregular gaps) at the same assertion.

The property layer uses Hypothesis when available and falls back to a
seeded ``random.Random`` sweep otherwise, so the suite runs in minimal
environments without any extra installs.
"""

from __future__ import annotations

import functools
import random

import pytest

from tests.conftest import tiny_config
from repro.sim.differential import (
    GRID_POLICIES,
    GRID_SCHEMES,
    DiffReport,
    Divergence,
    diff_grid,
    diff_recipe,
    grid_recipes,
    summarize,
)
from repro.sim.parallel import make_recipe
from repro.sim.trace import CoreTrace, TraceRecord, Workload

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # minimal environment: seeded-random fallback below
    HAVE_HYPOTHESIS = False

CORES = 4
ACCESSES = 700


@pytest.fixture(scope="module")
def workloads():
    from repro.workloads import homogeneous_mix

    return [
        homogeneous_mix("bwaves.1", cores=CORES, n_accesses=ACCESSES),
        homogeneous_mix("xalancbmk.2", cores=CORES, n_accesses=ACCESSES),
    ]


def _cell(wl, scheme, policy, directory_mode="mesi", audit="end,collect",
          **kw):
    recipe = make_recipe(
        wl,
        scheme,
        policy=policy,
        l2="256KB",
        cores=CORES,
        directory_mode=directory_mode,
        audit=audit,
        **kw,
    )
    return diff_recipe(recipe, keep_results=True)


# ---------------------------------------------------------------------------
# the scheme x policy x workload grid
# ---------------------------------------------------------------------------


#: Every grid cell in both scheduling modes.  Lock-step (the canonical
#: stream of the MIN oracle and the Fig. 2 counts) takes the fast
#: engine's kernel with its own issue cycle and heap key; timing cells
#: keep their plain ``scheme-policy`` ids.
GRID_CELLS = [
    pytest.param(
        scheme, policy, scheduling,
        id=f"{scheme}-{policy}"
        + ("" if scheduling == "timing" else f"-{scheduling}"),
    )
    for scheduling in ("timing", "lockstep")
    for scheme in GRID_SCHEMES
    for policy in GRID_POLICIES
]


@pytest.mark.parametrize("scheme,policy,scheduling", GRID_CELLS)
def test_grid_cell_identical(workloads, scheme, policy, scheduling):
    for wl in workloads:
        report = _cell(wl, scheme, policy, scheduling=scheduling)
        assert report.ok, report.summary()


@pytest.mark.parametrize("scheme", ("inclusive", "ziv:notinprc"))
def test_zerodev_directory_identical(workloads, scheme):
    report = _cell(workloads[0], scheme, "lru", directory_mode="zerodev")
    assert report.ok, report.summary()


def test_audits_run_and_stay_clean(workloads):
    """Both engines finish every grid cell in an invariant-clean state."""
    report = _cell(workloads[0], "ziv:lrunotinprc", "srrip")
    assert report.ok, report.summary()
    for result in (report.object_result, report.fast_result):
        assert result.audit is not None
        assert result.audit.ok
        assert result.audit.violations == []
        assert result.audit.sweeps >= 1


def test_telemetry_streams_identical(workloads):
    report = _cell(
        workloads[1], "ziv:notinprc", "nru", telemetry="200,events=all"
    )
    assert report.ok, report.summary()
    fast = report.fast_result.telemetry
    assert fast is not None
    assert len(fast.series.samples) > 0
    assert report.object_result.telemetry.events == fast.events


@pytest.mark.parametrize("scheme", ("ziv:notinprc", "ziv:maxrrpvnotinprc"))
def test_sampled_and_audited_cells_identical(workloads, scheme):
    """Telemetry samples and periodic audit sweeps split the fast
    engine's fused kernel into segments: every event index, series row
    and sweep must still equal the object engine's, field for field."""
    report = _cell(
        workloads[1], scheme, "srrip", audit="90,collect",
        telemetry="130,events=all",
    )
    assert report.ok, report.summary()
    total = report.fast_result.stats.total_accesses
    for result in (report.object_result, report.fast_result):
        assert result.audit.sweeps == total // 90 + 1
        assert result.audit.violations == []
        series = result.telemetry.series
        assert series.column("access_index")[:-1] == list(
            range(130, total, 130)
        )
        assert result.telemetry.events
    fast_events = report.fast_result.telemetry.events
    assert fast_events == report.object_result.telemetry.events
    assert len({e.access_index for e in fast_events}) > 1


# ---------------------------------------------------------------------------
# stress cells: the ZIV relocation machinery under pressure
# ---------------------------------------------------------------------------

#: Every ZIV rule the fast engine runs.
ZIV_RULES = tuple(s for s in GRID_SCHEMES if s.startswith("ziv:"))


def columns_workload(streams, name: str, seed: int) -> Workload:
    """One trace per ``draw`` callable; gaps and 30% writes drawn from a
    single seeded generator."""
    rng = random.Random(seed)
    traces = []
    for core, (n, draw) in enumerate(streams):
        addrs = [draw(rng) for _ in range(n)]
        gaps = [rng.randrange(4) for _ in range(n)]
        writes = [rng.random() < 0.3 for _ in range(n)]
        traces.append(CoreTrace.from_columns(
            gaps, addrs, writes, [0] * n, name=f"{name}{core}"
        ))
    return Workload(traces, name=name)


#: 4 cores; L1 2x2, L2 2x4, LLC 2 banks x 4 sets x 8 ways, directory
#: 4 x 8 per slice: 48 private blocks over a 64-block LLC, so the LLC
#: fills and privately cached victims are relocated all the time.
STRESS_CONFIG = tiny_config(cores=4, l1=(2, 2), l2=(2, 4), llc=(2, 4, 8),
                            dir_geom=(4, 8))


def stress_workload(cores: int = 4, n: int = 3000) -> Workload:
    """Each core's accesses go half to its own 6-block hot region and
    half to a 256-block spray that every core shares.  Sharing the
    spray is what lets a second core hit a block relocated while the
    first still caches it (a relocated hit)."""
    def stream(core):
        base = 4096 * (core + 1)
        return lambda rng: (base + rng.randrange(6) if rng.random() < 0.5
                            else rng.randrange(256))

    return columns_workload(
        [(n, stream(core)) for core in range(cores)], "stress", seed=0
    )


#: 2 cores; L1 1x2, L2 1x3, LLC 2 banks x 2 sets x 3 ways, directory
#: 2 x 8 (``tests/test_ziv.py::TestCrossBank``).
CROSS_BANK_CONFIG = tiny_config(cores=2, l1=(1, 2), l2=(1, 3),
                                llc=(2, 2, 3), dir_geom=(2, 8))


def cross_bank_workload(n: int = 1500) -> Workload:
    """Both cores touch even (bank-0) blocks only -- core 0 eight of
    them, core 1 six -- so bank 0 fills with privately cached blocks and
    its victims must move to bank 1.  (At the stress geometry the bank
    and the private set index share the low address bit, so a
    bank-skewed trace never forces a cross-bank relocation there.)"""
    return columns_workload(
        [(n, lambda rng: rng.randrange(8) * 2),
         (n, lambda rng: rng.randrange(6) * 2)],
        "xbank", seed=0,
    )


STRESS_CELLS = [
    (rule, policy, scheduling, dmode)
    for rule in ZIV_RULES
    for policy in GRID_POLICIES
    for scheduling in ("timing", "lockstep")
    for dmode in ("mesi", "zerodev")
]
CROSS_BANK_CELLS = [(rule, "srrip", "timing", "xbank") for rule in ZIV_RULES]


@functools.lru_cache(maxsize=None)
def _stress_report(rule, policy, scheduling, dmode) -> DiffReport:
    """One stress cell through both engines (memoised: the path floor
    below reads the same runs).  A periodic collecting audit checks
    every invariant, the property-vector bits included, mid-run."""
    if dmode == "xbank":
        wl, config = cross_bank_workload(), CROSS_BANK_CONFIG
    else:
        wl = stress_workload()
        config = STRESS_CONFIG.replace(directory_mode=dmode)
    recipe = make_recipe(wl, rule, policy=policy, scheduling=scheduling,
                         config=config, audit="1000,collect")
    return diff_recipe(recipe, keep_results=True)


@pytest.mark.parametrize(
    "cell", STRESS_CELLS + CROSS_BANK_CELLS, ids="-".join
)
def test_stress_cell_identical(cell):
    report = _stress_report(*cell)
    assert report.ok, report.summary()
    for result in (report.object_result, report.fast_result):
        assert result.audit.sweeps > 1
        assert result.audit.violations == []


#: Counters the stress cells must drive above zero, summed over all of
#: them: each names a path of the ZIV machinery the grid certifies.
PATH_FLOOR = (
    "relocations",
    "relocated_hits",
    "relocations_rechained",
    "relocations_cross_bank",
    "inclusion_victims_dir",
    "directory_spills",
)


def test_stress_cells_reach_every_relocation_path():
    """A geometry or workload change that stops reaching a path fails
    here instead of certifying nothing."""
    stats = [
        _stress_report(*cell).fast_result.stats
        for cell in STRESS_CELLS + CROSS_BANK_CELLS
    ]
    sums = {key: sum(getattr(s, key) for s in stats) for key in PATH_FLOOR}
    assert all(sums.values()), sums
    assert max(s.relocation_fifo_peak for s in stats) >= 2


# ---------------------------------------------------------------------------
# harness plumbing
# ---------------------------------------------------------------------------


def test_grid_recipes_cover_all_axes(workloads):
    recipes = grid_recipes(workloads[:1])
    assert len(recipes) == len(GRID_SCHEMES) * len(GRID_POLICIES) * 2
    assert {r.scheme for r in recipes} == set(GRID_SCHEMES)
    assert {r.policy for r in recipes} == set(GRID_POLICIES)
    assert {r.config.directory_mode for r in recipes} == {"mesi", "zerodev"}
    # audit baked into every cell's config (and therefore its cache key)
    assert all(r.config.audit.enabled for r in recipes)


def test_diff_grid_smoke(workloads):
    reports = diff_grid(
        workloads[:1],
        schemes=("inclusive",),
        policies=("lru", "srrip"),
        directory_modes=("mesi",),
        cores=CORES,
    )
    assert len(reports) == 2
    assert all(r.ok for r in reports)
    assert summarize(reports).endswith("0 diverging")


def test_report_summary_lists_divergences():
    report = DiffReport(
        scheme="inclusive",
        policy="lru",
        workload="wl",
        directory_mode="mesi",
        divergences=[Divergence("stats.llc_hits", "1", "2")],
    )
    assert not report.ok
    text = report.summary()
    assert "1 divergence(s)" in text
    assert "stats.llc_hits: object=1 fast=2" in text


# ---------------------------------------------------------------------------
# property-based layer: random traces
# ---------------------------------------------------------------------------


#: Address strides of the random pools.  Trace addresses are block
#: numbers, so stride 1 spreads a pool over every LLC bank and set, and
#: stride 64 piles it into one set of bank 0.
STRIDES = (1, 2, 64)


def random_workload(seed: int, stride: int, cores: int = CORES,
                    n: int = 350) -> Workload:
    """A workload of shared-pool random traces.

    All cores draw block numbers from one pool of 48 to 160 blocks,
    ``stride`` apart, so the runs exercise cross-core sharing: directory
    forwards, eviction notices, write-back merging and (for inclusive
    designs) back-invalidation.  At ``STRESS_CONFIG`` the 96- and
    160-block pools over-subscribe the 64-block LLC, and strides 2 and
    64 crowd any pool into bank 0's 32 blocks or one 8-way set."""
    rng = random.Random(seed)
    blocks = rng.choice((48, 96, 160))
    traces = []
    for core in range(cores):
        recs = [
            TraceRecord(
                gap=rng.randrange(4),
                addr=rng.randrange(blocks) * stride,
                is_write=rng.random() < 0.3,
                pc=rng.randrange(32) * 4,
            )
            for _ in range(n)
        ]
        traces.append(CoreTrace(recs, name=f"rand{core}"))
    return Workload(traces, name=f"rand-s{seed}-b{blocks}-x{stride}")


def test_a_stride_1_pool_reaches_every_llc_set():
    llc = STRESS_CONFIG.llc
    homes = {
        (llc.bank_index(addr), llc.set_index(addr))
        for trace in random_workload(0, 1) for addr in trace.addrs
    }
    assert homes == {
        (bank, s)
        for bank in range(llc.banks) for s in range(llc.sets_per_bank)
    }


def _assert_random_cell(seed, stride, scheme, policy, directory_mode):
    recipe = make_recipe(
        random_workload(seed, stride), scheme, policy=policy,
        config=STRESS_CONFIG.replace(directory_mode=directory_mode),
        audit="end,collect",
    )
    report = diff_recipe(recipe, keep_results=True)
    assert report.ok, report.summary()
    for result in (report.object_result, report.fast_result):
        assert result.audit.violations == []


if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        stride=st.sampled_from(STRIDES),
        scheme=st.sampled_from(GRID_SCHEMES),
        policy=st.sampled_from(GRID_POLICIES),
        directory_mode=st.sampled_from(("mesi", "zerodev")),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_traces_identical(seed, stride, scheme, policy,
                                     directory_mode):
        _assert_random_cell(seed, stride, scheme, policy, directory_mode)

else:

    @pytest.mark.parametrize("seed", range(12))
    def test_random_traces_identical(seed):
        rng = random.Random(seed * 7919 + 1)
        _assert_random_cell(
            seed,
            rng.choice(STRIDES),
            rng.choice(GRID_SCHEMES),
            rng.choice(GRID_POLICIES),
            rng.choice(("mesi", "zerodev")),
        )
