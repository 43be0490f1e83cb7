"""Statistical checks of the paper's headline claims on a small
population.

These complement the per-figure benches: every assertion here is a
*directional* claim the paper makes, evaluated on a reduced mix
population so the whole module runs in CI time.  If one of these fails
after a change, the reproduction no longer tells the paper's story.
"""

import pytest

from repro.params import scaled_config
from repro.sim.engine import run_workload
from repro.sim.metrics import geomean, mix_speedup
from repro.workloads import heterogeneous_mixes


@pytest.fixture(scope="module")
def mixes():
    return heterogeneous_mixes(n_mixes=4, cores=8, n_accesses=2000, seed=11)


def runs(mixes, scheme, policy, l2="512KB", **kw):
    cfg = scaled_config(l2, **kw)
    return [run_workload(cfg, wl, scheme, llc_policy=policy) for wl in mixes]


def avg_speedup(base, cand):
    return geomean(mix_speedup(b, c) for b, c in zip(base, cand))


class TestMotivation:
    def test_hawkeye_generates_far_more_inclusion_victims_than_lru(
        self, mixes
    ):
        """Paper Fig. 2: optimal-leaning policies victimise recently used
        (privately cached) blocks."""
        lru = runs(mixes, "inclusive", "lru")
        hk = runs(mixes, "inclusive", "hawkeye")
        lru_victims = sum(r.stats.inclusion_victims_llc for r in lru)
        hk_victims = sum(r.stats.inclusion_victims_llc for r in hk)
        assert hk_victims > 5 * max(1, lru_victims)

    def test_min_generates_more_victims_than_lru(self, mixes):
        cfg = scaled_config("512KB")
        total_min, total_lru = 0, 0
        for wl in mixes:
            mn = run_workload(cfg, wl, "inclusive", "belady",
                              scheduling="lockstep")
            lru = run_workload(cfg, wl, "inclusive", "lru",
                               scheduling="lockstep")
            total_min += mn.stats.inclusion_victims_llc
            total_lru += lru.stats.inclusion_victims_llc
        assert total_min > total_lru

    def test_noninclusive_beats_inclusive_under_hawkeye(self, mixes):
        """Paper Fig. 1: the I/NI gap is significant under Hawkeye."""
        i_hk = runs(mixes, "inclusive", "hawkeye")
        ni_hk = runs(mixes, "noninclusive", "hawkeye")
        assert avg_speedup(i_hk, ni_hk) > 1.005


class TestZIVClaims:
    def test_ziv_stays_competitive_with_its_baseline(self, mixes):
        """Paper Fig. 11: ZIV-MRLikelyDead performs at (or slightly above)
        the inclusive Hawkeye baseline on average, while guaranteeing
        zero inclusion victims -- the guarantee is nearly free.  (The
        paper's own bars show ZIV within a percent of I-Hawkeye at every
        L2 point, with individual mixes regressing, so the robust claim
        is 'no collapse', not a fixed win margin.)"""
        i_hk = runs(mixes, "inclusive", "hawkeye")
        ziv = runs(mixes, "ziv:mrlikelydead", "hawkeye")
        assert avg_speedup(i_hk, ziv) > 0.98
        assert all(r.stats.inclusion_victims_llc == 0 for r in ziv)
        assert any(
            r.stats.inclusion_victims_llc > 0 for r in i_hk
        )  # the baseline really was paying victims

    def test_ziv_beats_qbs_under_hawkeye(self, mixes):
        """Paper Fig. 11: QBS sacrifices Hawkeye's hits; ZIV does not."""
        qbs = runs(mixes, "qbs", "hawkeye")
        ziv = runs(mixes, "ziv:mrlikelydead", "hawkeye")
        assert avg_speedup(qbs, ziv) > 1.0

    def test_all_ziv_variants_eliminate_victims_everywhere(self, mixes):
        for scheme, policy in (
            ("ziv:notinprc", "lru"),
            ("ziv:likelydead", "lru"),
            ("ziv:mrlikelydead", "hawkeye"),
        ):
            for r in runs(mixes, scheme, policy):
                assert r.stats.inclusion_victims_llc == 0

    def test_mrlikelydead_at_least_matches_mrnotinprc(self, mixes):
        """Paper: CHAR's inference adds roughly a percent over the
        Hawkeye-only property."""
        a = runs(mixes, "ziv:maxrrpvnotinprc", "hawkeye")
        b = runs(mixes, "ziv:mrlikelydead", "hawkeye")
        assert avg_speedup(a, b) > 0.995


class TestZeroDEVClaims:
    def test_zerodev_is_directory_size_invariant(self, mixes):
        """Paper Fig. 15 right half."""
        big = runs(mixes, "ziv:mrlikelydead", "hawkeye",
                   directory_mode="zerodev", directory_factor=2.0)
        small = runs(mixes, "ziv:mrlikelydead", "hawkeye",
                     directory_mode="zerodev", directory_factor=0.25)
        assert abs(avg_speedup(big, small) - 1.0) < 0.01
        for r in big + small:
            assert r.stats.inclusion_victims_dir == 0

    def test_mesi_small_directory_hurts(self, mixes):
        big = runs(mixes, "inclusive", "hawkeye", directory_factor=2.0)
        small = runs(mixes, "inclusive", "hawkeye", directory_factor=0.25)
        assert avg_speedup(big, small) < 1.0
        assert (
            sum(r.stats.inclusion_victims_dir for r in small)
            > sum(r.stats.inclusion_victims_dir for r in big)
        )
