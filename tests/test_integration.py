"""Cross-module integration: full simulations with invariant audits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import scaled_config
from repro.sim.engine import run_workload
from repro.sim.trace import Workload
from repro.workloads import build_trace, homogeneous_mix, multithreaded_workload


def small_mix(cores=8, n=800, seed=0):
    return homogeneous_mix("xalancbmk.2", cores=cores, n_accesses=n,
                           seed=seed)


class TestEndToEnd:
    def test_all_schemes_run_to_completion(self):
        wl = small_mix()
        cfg = scaled_config("512KB")
        for scheme, policy in (
            ("inclusive", "lru"),
            ("noninclusive", "lru"),
            ("qbs", "lru"),
            ("sharp", "lru"),
            ("charonbase", "lru"),
            ("ziv:notinprc", "lru"),
            ("ziv:lrunotinprc", "lru"),
            ("ziv:likelydead", "lru"),
            ("inclusive", "hawkeye"),
            ("ziv:maxrrpvnotinprc", "hawkeye"),
            ("ziv:mrlikelydead", "hawkeye"),
        ):
            r = run_workload(cfg, wl, scheme, llc_policy=policy)
            assert r.stats.total_accesses == wl.total_accesses()
            if scheme.startswith("ziv"):
                assert r.stats.inclusion_victims_llc == 0

    def test_functional_counts_equal_across_scheduling_for_one_core(self):
        cfg = scaled_config("256KB", cores=8)
        wl = small_mix(n=500)
        timing = run_workload(cfg, wl, "inclusive")
        locks = run_workload(cfg, wl, "inclusive", scheduling="lockstep")
        # multiprogrammed mixes share nothing, so content dynamics are
        # interleaving-independent at the per-core level
        assert timing.stats.l2_misses == locks.stats.l2_misses

    def test_multithreaded_coherence_traffic(self):
        cfg = scaled_config("512KB")
        wl = multithreaded_workload("applu", cores=8, n_accesses=1200)
        r = run_workload(cfg, wl, "inclusive", llc_policy="lru")
        assert r.stats.coherence_invalidations > 0

    def test_ziv_multithreaded_guarantee(self):
        cfg = scaled_config("512KB")
        wl = multithreaded_workload("applu", cores=8, n_accesses=1200)
        r = run_workload(cfg, wl, "ziv:likelydead", llc_policy="lru")
        assert r.stats.inclusion_victims_llc == 0

    def test_min_generates_more_inclusion_victims_than_lru(self):
        """The paper's core motivation (Fig. 2): optimal-leaning policies
        victimise recently used blocks, which are privately cached."""
        cfg = scaled_config("512KB")
        wl = Workload(
            [
                build_trace("xalancbmk.2", 2500, base_addr=(c + 1) << 24,
                            seed=c)
                for c in range(8)
            ],
            "circmix",
        )
        lru = run_workload(cfg, wl, "inclusive", "lru",
                           scheduling="lockstep")
        mn = run_workload(cfg, wl, "inclusive", "belady",
                          scheduling="lockstep")
        assert (
            mn.stats.inclusion_victims_llc
            > lru.stats.inclusion_victims_llc
        )

    def test_min_has_fewest_llc_misses(self):
        """Sanity: even paying inclusion victims, MIN's LLC miss count on
        the oracle stream beats LRU's."""
        cfg = scaled_config("512KB")
        wl = small_mix(n=2000, seed=2)
        lru = run_workload(cfg, wl, "inclusive", "lru",
                           scheduling="lockstep")
        mn = run_workload(cfg, wl, "inclusive", "belady",
                          scheduling="lockstep")
        assert mn.stats.llc_misses <= lru.stats.llc_misses


class TestInvariantAudit:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scheme=st.sampled_from(
            ["inclusive", "qbs", "sharp", "ziv:notinprc", "ziv:likelydead"]
        ),
    )
    def test_inclusive_family_invariants(self, seed, scheme):
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme
        from repro.sim.engine import Simulation

        cfg = scaled_config("512KB", cores=4)
        wl = homogeneous_mix("gcc.2", cores=4, n_accesses=400, seed=seed)
        h = CacheHierarchy(cfg, make_scheme(scheme))
        Simulation(h, wl).run()
        assert h.inclusion_holds()
        assert h.directory_consistent()

    def test_llc_occupancy_bounded(self):
        cfg = scaled_config("256KB")
        wl = small_mix(n=1500, seed=3)
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme
        from repro.sim.engine import Simulation

        h = CacheHierarchy(cfg, make_scheme("ziv:notinprc"))
        Simulation(h, wl).run()
        assert h.llc.occupancy() <= h.llc.blocks_total
