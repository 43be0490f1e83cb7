"""Workload generators: patterns, profiles, mixes, multi-threaded apps."""

import random

import pytest

from repro.workloads.mixes import (
    CORE_ADDR_STRIDE,
    heterogeneous_mixes,
    homogeneous_mix,
    homogeneous_mixes,
)
from repro.workloads.multithreaded import MT_APP_NAMES, multithreaded_workload
from repro.workloads.patterns import (
    CircularPattern,
    HotPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    PATTERN_FACTORY,
    StreamingPattern,
    make_pattern,
    randbelow,
)
from repro.workloads.profiles import (
    ALL_PROFILE_NAMES,
    build_trace,
    get_profile,
)


class TestPatterns:
    def test_factory_known_kinds(self):
        for kind in ("streaming", "circular", "hot", "random", "chase",
                     "stencil"):
            p = make_pattern(kind, 16, seed=1)
            offs = [p.next_offset() for _ in range(100)]
            assert all(0 <= o < 16 for o in offs)

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_pattern("zigzag", 8)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            StreamingPattern(0)

    def test_streaming_wraps(self):
        p = StreamingPattern(4)
        assert [p.next_offset() for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_circular_is_streaming(self):
        p = CircularPattern(3)
        assert [p.next_offset() for _ in range(4)] == [0, 1, 2, 0]

    def test_chase_visits_every_block_per_lap(self):
        p = PointerChasePattern(16, seed=2)
        lap = [p.next_offset() for _ in range(16)]
        assert sorted(lap) == list(range(16))
        lap2 = [p.next_offset() for _ in range(16)]
        assert lap == lap2  # fixed permutation cycle

    def test_hot_is_skewed(self):
        p = HotPattern(100, seed=3)
        offs = [p.next_offset() for _ in range(2000)]
        low = sum(1 for o in offs if o < 50)
        assert low > 1300  # min-of-two-uniforms biases low

    def test_random_determinism(self):
        a = RandomPattern(64, seed=9)
        b = RandomPattern(64, seed=9)
        assert [a.next_offset() for _ in range(50)] == [
            b.next_offset() for _ in range(50)
        ]

    def test_stencil_touches_neighbours(self):
        p = StencilPattern(64, row=8)
        offs = [p.next_offset() for _ in range(3)]
        assert offs == [0, 8, 64 - 8]


class TestBulkOffsets:
    """``take`` hands out offsets in bulk; the generators rely on it being
    the same stream as one offset at a time."""

    @pytest.mark.parametrize("kind", sorted(PATTERN_FACTORY))
    @pytest.mark.parametrize("size", [1, 3, 16, 1000])
    def test_take_splits_like_one_stream(self, kind, size):
        for a, b in ((0, 5), (1, 1), (7, 30), (size, size + 2),
                     (2 * size + 1, 3)):
            split = make_pattern(kind, size, seed=size + a)
            whole = make_pattern(kind, size, seed=size + a)
            single = make_pattern(kind, size, seed=size + a)
            got = split.take(a) + split.take(b)
            assert got == whole.take(a + b)
            assert got == [single.next_offset() for _ in range(a + b)]
            assert all(0 <= off < size for off in got)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_randbelow_is_randrange(self, seed):
        """The inlined bounded draw consumes the stream exactly as
        ``random.Random.randrange`` does (CPython 3.10 to 3.12)."""
        mine = random.Random(seed)
        theirs = random.Random(seed)
        for n in range(1, 1101):
            k = n % 5 + 1
            assert randbelow(mine, n, k) == [
                theirs.randrange(n) for _ in range(k)
            ]
        assert mine.random() == theirs.random()


class TestProfiles:
    def test_thirty_six_profiles(self):
        assert len(ALL_PROFILE_NAMES) == 36

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("perlbench.1")

    def test_variants_scale_footprint(self):
        small = get_profile("mcf.1").footprint()
        mid = get_profile("mcf.2").footprint()
        large = get_profile("mcf.3").footprint()
        assert small < mid < large

    def test_build_trace_length_and_determinism(self):
        t1 = build_trace("gcc.2", 500, base_addr=1 << 20, seed=4)
        t2 = build_trace("gcc.2", 500, base_addr=1 << 20, seed=4)
        assert len(t1) == 500
        assert all(a.addr == b.addr and a.pc == b.pc
                   for a, b in zip(t1, t2))

    def test_different_seeds_differ(self):
        t1 = build_trace("gcc.2", 200, seed=1)
        t2 = build_trace("gcc.2", 200, seed=2)
        assert [r.addr for r in t1] != [r.addr for r in t2]

    def test_addresses_within_core_slab(self):
        base = 3 * CORE_ADDR_STRIDE
        t = build_trace("lbm.3", 1000, base_addr=base, seed=0)
        assert all(base <= r.addr < base + CORE_ADDR_STRIDE for r in t)

    def test_write_ratio_roughly_respected(self):
        prof = get_profile("lbm.2")  # write_ratio 0.4
        t = build_trace(prof, 4000, seed=5)
        ratio = sum(r.is_write for r in t) / len(t)
        assert abs(ratio - prof.write_ratio) < 0.05

    def test_pcs_are_stable_across_seeds(self):
        """PCs model static load instructions: same profile -> same PC
        pool regardless of data seed (so Hawkeye can learn)."""
        pcs1 = {r.pc for r in build_trace("mcf.2", 500, seed=1)}
        pcs2 = {r.pc for r in build_trace("mcf.2", 500, seed=2)}
        assert pcs1 == pcs2


class TestMixes:
    def test_homogeneous_mix_disjoint_address_spaces(self):
        wl = homogeneous_mix("gcc.1", cores=4, n_accesses=200)
        slabs = [
            {r.addr // CORE_ADDR_STRIDE for r in t} for t in wl
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert slabs[i].isdisjoint(slabs[j])

    def test_homogeneous_mixes_cover_all_profiles(self):
        mixes = homogeneous_mixes(cores=2, n_accesses=10)
        assert len(mixes) == 36
        assert {m.traces[0].name for m in mixes} == set(ALL_PROFILE_NAMES)

    def test_heterogeneous_no_within_mix_duplicates(self):
        mixes = heterogeneous_mixes(n_mixes=36, cores=8, n_accesses=10)
        for m in mixes:
            names = [t.name for t in m]
            assert len(names) == len(set(names)), m.name

    def test_heterogeneous_equal_representation(self):
        """36 mixes x 8 slots: every profile appears exactly 8 times."""
        mixes = heterogeneous_mixes(n_mixes=36, cores=8, n_accesses=10)
        from collections import Counter

        counts = Counter(t.name for m in mixes for t in m)
        assert set(counts.values()) == {8}

    def test_heterogeneous_deterministic(self):
        a = heterogeneous_mixes(n_mixes=4, cores=4, n_accesses=10, seed=3)
        b = heterogeneous_mixes(n_mixes=4, cores=4, n_accesses=10, seed=3)
        assert [[t.name for t in m] for m in a] == [
            [t.name for t in m] for m in b
        ]


class TestMultithreaded:
    def test_known_apps(self):
        assert set(MT_APP_NAMES) == {
            "canneal", "facesim", "vips", "applu", "tpce"
        }
        with pytest.raises(ValueError):
            multithreaded_workload("ferret")

    def test_threads_share_addresses(self):
        wl = multithreaded_workload("applu", cores=4, n_accesses=2000)
        sets = [{r.addr for r in t} for t in wl]
        shared = sets[0] & sets[1] & sets[2] & sets[3]
        assert shared  # genuine read/write sharing exists

    def test_threads_have_private_regions(self):
        wl = multithreaded_workload("applu", cores=2, n_accesses=2000)
        a, b = ({r.addr for r in t} for t in wl)
        assert a - b and b - a

    def test_trace_lengths(self):
        wl = multithreaded_workload("vips", cores=3, n_accesses=123)
        assert all(len(t) == 123 for t in wl)

    def test_determinism(self):
        w1 = multithreaded_workload("canneal", cores=2, n_accesses=100,
                                    seed=5)
        w2 = multithreaded_workload("canneal", cores=2, n_accesses=100,
                                    seed=5)
        for t1, t2 in zip(w1, w2):
            assert [r.addr for r in t1] == [r.addr for r in t2]
