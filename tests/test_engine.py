"""Simulation engine: scheduling modes, accounting, determinism."""

import pytest

from tests.conftest import tiny_config

from repro.hierarchy.cmp import CacheHierarchy
from repro.schemes import make_scheme
from repro.sim.engine import Simulation, run_workload
from repro.sim.trace import CoreTrace, TraceRecord, Workload


def workload(cores=2, length=100, stride=1):
    traces = []
    for c in range(cores):
        recs = [
            TraceRecord(2, (c + 1) * 1000 + i * stride, i % 5 == 0, i % 7)
            for i in range(length)
        ]
        traces.append(CoreTrace(recs, name=f"app{c}"))
    return Workload(traces, name="wl")


def sim(wl=None, scheduling="timing", scheme="inclusive", cfg=None):
    cfg = cfg or tiny_config()
    wl = wl or workload(cfg.cores)
    h = CacheHierarchy(cfg, make_scheme(scheme))
    return Simulation(h, wl, scheduling=scheduling)


class TestValidation:
    def test_bad_scheduling_mode(self):
        with pytest.raises(ValueError):
            sim(scheduling="ooo")

    def test_core_count_mismatch(self):
        with pytest.raises(ValueError):
            sim(wl=workload(cores=3))


class TestTimingMode:
    def test_instructions_accounted(self):
        r = sim().run()
        # each record represents gap+1 = 3 instructions
        assert r.stats.cores[0].instructions == 300
        assert r.stats.total_accesses == 200

    def test_cycles_positive_and_max_of_cores(self):
        r = sim().run()
        assert r.cycles == max(c.cycles for c in r.stats.cores)
        assert all(c.cycles > 0 for c in r.stats.cores)

    def test_ipc_computed(self):
        r = sim().run()
        assert all(0 < c.ipc < 4 for c in r.stats.cores)

    def test_deterministic(self):
        r1 = sim().run()
        r2 = sim().run()
        assert r1.cycles == r2.cycles
        assert r1.stats.llc_misses == r2.stats.llc_misses

    def test_result_carries_energy_and_scheme_stats(self):
        r = sim(scheme="ziv:notinprc").run()
        assert r.energy is not None
        assert isinstance(r.scheme_stats, dict)

    def test_memory_latency_slows_execution(self):
        """A trace with no reuse must take longer than a cache-resident
        one of equal length."""
        cfg = tiny_config()
        hot = Workload(
            [
                CoreTrace(
                    [TraceRecord(2, 1000 * (c + 1) + (i % 2), False, 0)
                     for i in range(200)]
                )
                for c in range(2)
            ],
            "hot",
        )
        cold = Workload(
            [
                CoreTrace(
                    [TraceRecord(2, 1000 * (c + 1) + i * 64, False, 0)
                     for i in range(200)]
                )
                for c in range(2)
            ],
            "cold",
        )
        r_hot = sim(wl=hot, cfg=cfg).run()
        r_cold = sim(wl=cold, cfg=tiny_config()).run()
        assert r_cold.cycles > r_hot.cycles


class TestLockstepMode:
    def test_lockstep_interleaves_by_index(self):
        r = sim(scheduling="lockstep").run()
        assert r.cycles == 200  # one "cycle" per access

    def test_lockstep_vs_timing_same_functional_counts_single_core(self):
        """With one core there is no interleaving ambiguity: both modes
        must produce identical miss counts."""
        cfg = tiny_config(cores=1)
        wl = workload(cores=1)
        r1 = sim(wl=wl, cfg=cfg, scheduling="timing").run()
        wl2 = workload(cores=1)
        r2 = sim(wl=wl2, cfg=tiny_config(cores=1),
                 scheduling="lockstep").run()
        assert r1.stats.llc_misses == r2.stats.llc_misses
        assert r1.stats.l2_misses == r2.stats.l2_misses


class TestRunWorkload:
    def test_one_call_runner(self):
        cfg = tiny_config()
        r = run_workload(cfg, workload(), "ziv:notinprc", llc_policy="lru")
        assert r.scheme == "ziv:notinprc"
        assert r.policy == "lru"
        assert r.stats.inclusion_victims_llc == 0

    def test_belady_with_oracle(self):
        """A direct Belady run builds the canonical lock-step MIN oracle
        (paper footnote 2) that a ``run_many`` recipe of the same run
        builds, so the two count alike."""
        from repro.sim.parallel import make_recipe, run_many

        cfg = tiny_config()
        wl = workload()
        direct = run_workload(cfg, wl, "inclusive", llc_policy="belady",
                              scheduling="lockstep")
        [recipe] = run_many([make_recipe(wl, "inclusive", "belady",
                                         config=cfg)])
        assert direct.stats == recipe.stats
        assert direct.cycles == recipe.cycles
        assert direct.stats.llc_misses > 0
