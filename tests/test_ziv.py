"""The ZIV LLC: the zero-inclusion-victim guarantee and its machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import build, drive, tiny_config

ALL_ZIV = (
    "ziv:notinprc",
    "ziv:lrunotinprc",
    "ziv:maxrrpvnotinprc",
    "ziv:likelydead",
    "ziv:mrlikelydead",
)


def policy_for(scheme: str) -> str:
    return "hawkeye" if scheme in (
        "ziv:maxrrpvnotinprc", "ziv:mrlikelydead"
    ) else "lru"


class TestZeroInclusionVictimGuarantee:
    @pytest.mark.parametrize("scheme", ALL_ZIV)
    def test_no_llc_back_invalidations(self, scheme):
        h = drive(build(scheme, policy=policy_for(scheme)), 4000, seed=1)
        assert h.stats.back_invalidations_llc == 0
        assert h.stats.inclusion_victims_llc == 0

    @pytest.mark.parametrize("scheme", ALL_ZIV)
    def test_inclusion_property_holds(self, scheme):
        h = drive(build(scheme, policy=policy_for(scheme)), 3000, seed=2)
        assert h.inclusion_holds()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        scheme=st.sampled_from(ALL_ZIV),
    )
    def test_guarantee_on_random_traces(self, seed, scheme):
        """Property test of the paper's headline claim: for ANY access
        stream, the ZIV LLC generates zero LLC-replacement inclusion
        victims while keeping the hierarchy inclusive."""
        h = drive(build(scheme, policy=policy_for(scheme)), 500, seed=seed)
        assert h.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()
        assert h.directory_consistent()

    def test_guarantee_under_heavy_pressure(self):
        """Private caches at 3/4 of the LLC: relocation happens constantly
        and must still never back-invalidate."""
        cfg = tiny_config(cores=2, l2=(1, 6), llc=(2, 2, 5))
        h = drive(build("ziv:notinprc", cfg), 6000, seed=4)
        assert h.stats.inclusion_victims_llc == 0
        assert h.stats.relocations > 0
        assert h.inclusion_holds()


class TestRelocationMechanics:
    def test_relocated_block_is_accessible(self):
        """After relocation, an access to the block from a new core is
        served through the directory pointer (paper III-C1)."""
        h = drive(build("ziv:notinprc"), 4000, seed=6)
        assert h.stats.relocations > 0

    def test_relocated_hits_counted(self):
        # shared-block workload over a small LLC, so relocations happen
        # and a second core later accesses relocated blocks
        import random

        cfg = tiny_config(cores=2, l1=(1, 2), l2=(1, 3), llc=(2, 2, 3))
        rng = random.Random(3)
        accesses = [
            (rng.randrange(2), rng.randrange(16), rng.random() < 0.2)
            for _ in range(6000)
        ]
        h = drive(build("ziv:notinprc", cfg), accesses)
        assert h.stats.relocations > 0
        assert h.stats.relocated_hits > 0

    def test_same_set_fallback_preferred(self):
        """When the original set satisfies the property, no relocation is
        performed (paper III-D: 'no need for a relocation')."""
        h = drive(build("ziv:notinprc"), 4000, seed=1)
        assert h.stats.relocation_same_set > 0

    def test_relocation_updates_directory_pointer(self):
        h = drive(build("ziv:notinprc"), 4000, seed=8)
        found_relocated = False
        for entry in h.directory.iter_valid():
            if entry.relocated:
                found_relocated = True
                blk = h.llc.block(
                    entry.reloc_bank, entry.reloc_set, entry.reloc_way
                )
                assert blk.relocated
                assert blk.addr == entry.addr
        # with this much traffic some relocated block should be live
        assert found_relocated or h.stats.relocations == 0

    def test_relocated_blocks_never_not_in_prc(self):
        h = drive(build("ziv:lrunotinprc"), 4000, seed=9)
        for bank in h.llc.banks:
            for _s, _w, blk in bank.iter_valid():
                if blk.relocated:
                    assert not blk.not_in_prc
                    assert h.privately_cached(blk.addr)

    def test_rechaining_counted(self):
        """A relocated block chosen again as victim relocates again."""
        cfg = tiny_config(cores=2, l2=(1, 6), llc=(2, 2, 5))
        h = drive(build("ziv:notinprc", cfg), 8000, seed=10)
        assert h.stats.relocations_rechained > 0

    def test_energy_records_relocations(self):
        h = drive(build("ziv:notinprc"), 4000, seed=6)
        assert h.energy.relocations == h.stats.relocations

    def test_interval_tracker_populated(self):
        h = drive(build("ziv:notinprc"), 4000, seed=6)
        stats = h.scheme.on_stats()
        if h.stats.relocations > 1:
            assert stats["reloc_intervals"] > 0


class TestCrossBank:
    def test_cross_bank_relocation_when_bank_saturated(self):
        """One bank entirely privately cached forces relocation into a
        neighbour bank (paper III-D1)."""
        # 2 banks x 2 sets x 2 ways = 8 LLC blocks; private capacity 6
        cfg = tiny_config(cores=2, l1=(1, 2), l2=(1, 3), llc=(2, 2, 3),
                          dir_geom=(2, 8))
        import random

        rng = random.Random(0)
        # core 0 hammers bank-0 addresses only (even addrs), filling bank 0
        # with privately cached blocks; core 1 sprays to keep pressure.
        accesses = []
        for i in range(4000):
            if i % 3 != 2:
                accesses.append((0, rng.randrange(8) * 2, False))
            else:
                accesses.append((1, rng.randrange(6) * 2, False))
        h = drive(build("ziv:notinprc", cfg), accesses)
        assert h.stats.relocations_cross_bank > 0
        assert h.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()

    def test_invariant_error_when_impossible(self):
        """If aggregate private capacity >= LLC capacity the config is
        rejected up front (the guarantee's precondition)."""
        from repro.params import ConfigError

        with pytest.raises(ConfigError):
            tiny_config(cores=2, l2=(4, 4), llc=(2, 2, 4))


class TestZIVWithDirectoryEvictions:
    def test_dir_eviction_kills_relocated_block(self):
        """A displaced directory entry tracking a relocated block must
        invalidate that block (paper III-F) -- under-provisioned
        directory."""
        cfg = tiny_config(cores=2, l2=(2, 4), llc=(2, 4, 4),
                          dir_geom=(1, 4))  # tiny directory
        h = drive(build("ziv:notinprc", cfg), 6000, seed=11)
        assert h.stats.directory_evictions > 0
        # inclusion victims from the LLC remain zero; directory evictions
        # may create dir-class victims (that is ZeroDEV's job to fix)
        assert h.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()
        assert h.directory_consistent()

    def test_zerodev_eliminates_dir_victims(self):
        cfg = tiny_config(cores=2, l2=(2, 4), llc=(2, 4, 4),
                          dir_geom=(1, 4), directory_mode="zerodev")
        h = drive(build("ziv:notinprc", cfg), 6000, seed=11)
        assert h.stats.inclusion_victims_dir == 0
        assert h.stats.inclusion_victims_llc == 0
        assert h.directory.spill_count > 0
        assert h.inclusion_holds()


class TestAblationKnobs:
    def test_round_robin_flag_propagates(self):
        h = build("ziv:notinprc", round_robin=False)
        for bank_pvs in h.scheme.tracker.pvs:
            for pv in bank_pvs.values():
                assert pv.round_robin is False

    def test_round_robin_off_still_guarantees(self):
        h = drive(build("ziv:notinprc", round_robin=False), 3000, seed=3)
        assert h.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()
