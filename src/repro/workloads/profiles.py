"""Synthetic application profiles standing in for SPEC CPU 2017.

The paper draws 36 application-input pairs from SPEC CPU 2017 (ref inputs,
500M-instruction SimPoints).  We define 36 named profiles -- 12 behavioural
archetypes x 3 working-set variants -- whose *relationship to the scaled
cache hierarchy* mirrors the relationship of the real suite to the paper's
hierarchy: some fit in the L2 (and suffer inclusion victims inflicted by
others), some live in the LLC with circular reuse (and make MIN-like
policies victimise recently used blocks), some stream or thrash (and
inflict the evictions).  Working-set sizes below are in blocks and sized
against the scaled geometry (L2 = 64..192 blocks/core, LLC = 2048 blocks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.sim.trace import CoreTrace
from repro.workloads.patterns import make_pattern


def _fnv1a(*parts) -> int:
    """Deterministic 32-bit hash (Python's ``hash`` is salted per run)."""
    h = 0x811C9DC5
    for part in parts:
        for byte in str(part).encode():
            h ^= byte
            h = (h * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass(frozen=True)
class Region:
    """One access region of a profile."""

    kind: str  # pattern name
    size: int  # blocks
    weight: float  # fraction of accesses
    pcs: int = 4  # distinct load/store PCs touching the region


@dataclass(frozen=True)
class AppProfile:
    """A synthetic application: weighted regions + intensity knobs."""

    name: str
    regions: tuple[Region, ...]
    write_ratio: float = 0.15
    mean_gap: int = 6  # non-memory instructions between accesses

    def footprint(self) -> int:
        return sum(r.size for r in self.regions)


def _archetypes() -> dict[str, tuple[tuple, float, int]]:
    """12 behavioural archetypes: (regions, write_ratio, mean_gap).

    Region sizes are for the middle ("ref") variant; the small/large
    variants scale them by 3/4 and 3/2.
    """
    return {
        # LLC-thrashing pointer chaser (mcf-like): inflicts evictions.
        "mcf": (
            (("chase", 1536, 0.85), ("hot", 24, 0.15)),
            0.10,
            4,
        ),
        # Pure streaming (lbm-like): maximal LLC pressure, zero LLC reuse.
        "lbm": ((("streaming", 4096, 1.0),), 0.40, 3),
        # Pointer chase over an LLC-share-sized heap (omnetpp-like).
        "omnetpp": (
            (("chase", 448, 0.7), ("hot", 40, 0.3)),
            0.20,
            6,
        ),
        # Mostly L2-resident with a moderate circular tail (gcc-like).
        "gcc": (
            (("hot", 48, 0.6), ("circular", 192, 0.4)),
            0.25,
            7,
        ),
        # The classic circular pattern at ~LLC-share size (xalancbmk-like):
        # makes MIN/Hawkeye victimise recently used (privately cached)
        # blocks -- the paper's Section I-A analysis.
        "xalancbmk": ((("circular", 288, 0.9), ("hot", 16, 0.1)), 0.12, 5),
        # Stencil sweeps (cactuBSSN-like).
        "cactus": (
            (("stencil", 512, 0.8), ("hot", 32, 0.2)),
            0.30,
            5,
        ),
        # L2-resident game-tree search (deepsjeng-like): a victim of other
        # cores' inclusion victims.
        "deepsjeng": ((("hot", 56, 1.0),), 0.18, 8),
        # Small hot set (leela-like).
        "leela": ((("hot", 28, 1.0),), 0.12, 9),
        # Nearly cache-resident (exchange2-like): very low MPKI.
        "exchange2": ((("hot", 12, 1.0),), 0.08, 12),
        # Mixed stencil + streaming (wrf-like).
        "wrf": (
            (("stencil", 640, 0.5), ("streaming", 1024, 0.5)),
            0.35,
            4,
        ),
        # Large circular loop (bwaves-like): LLC-resident with long reuse.
        "bwaves": ((("circular", 1024, 0.95), ("hot", 16, 0.05)), 0.30, 4),
        # Streaming with a reused tile (fotonik3d-like).
        "fotonik3d": (
            (("streaming", 2048, 0.6), ("circular", 224, 0.4)),
            0.33,
            4,
        ),
    }


_VARIANTS = {"1": 0.75, "2": 1.0, "3": 1.5}


def _build_profiles() -> dict[str, AppProfile]:
    profiles: dict[str, AppProfile] = {}
    for base, (regions, wr, gap) in _archetypes().items():
        for suffix, scale in _VARIANTS.items():
            name = f"{base}.{suffix}"
            scaled = tuple(
                Region(kind, max(4, int(size * scale)), weight)
                for kind, size, weight in regions
            )
            profiles[name] = AppProfile(
                name=name, regions=scaled, write_ratio=wr, mean_gap=gap
            )
    return profiles


_PROFILES = _build_profiles()

#: The 36 profile names (12 archetypes x 3 working-set variants).
ALL_PROFILE_NAMES = tuple(sorted(_PROFILES))


def get_profile(name: str) -> AppProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; known: {ALL_PROFILE_NAMES}"
        ) from None


def build_trace(
    profile,
    n_accesses: int,
    base_addr: int = 0,
    seed: int = 0,
    name: str | None = None,
) -> CoreTrace:
    """Generate a trace of ``n_accesses`` for one core.

    ``base_addr`` (a block address) places the application in a disjoint
    part of the address space; multiprogrammed mixes give every core its
    own base.
    """
    if n_accesses < 0:
        raise ValueError(f"n_accesses must be >= 0, got {n_accesses}")
    if isinstance(profile, str):
        profile = get_profile(profile)
    rng = random.Random(_fnv1a(profile.name, seed, base_addr))
    patterns = []
    region_bases = []
    pc_pools = []
    # Random region placement emulates physical page allocation: distinct
    # processes (and copies of the same binary) do not alias onto the same
    # LLC/directory sets in a real machine.
    cursor = rng.randrange(1 << 14)
    for idx, region in enumerate(profile.regions):
        patterns.append(
            make_pattern(region.kind, region.size, seed=_fnv1a(seed, idx))
        )
        region_bases.append(base_addr + cursor)
        cursor += region.size + 16 + rng.randrange(512)
        pc_pools.append(
            [
                _fnv1a("pc", profile.name, idx, k) & 0x7FFFFFFF
                for k in range(region.pcs)
            ]
        )
    weights = [r.weight for r in profile.regions]
    total_w = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total_w
        cumulative.append(acc)

    max_gap = max(1, 2 * profile.mean_gap)
    gaps, writes, pcs, regions = draw_columns(
        rng, n_accesses, cumulative, profile.write_ratio, pc_pools, max_gap,
        gap_first=False,
    )
    addrs = region_addresses(regions, patterns, region_bases)
    return CoreTrace.from_columns(gaps, addrs, writes, pcs,
                                  name or profile.name)


def draw_columns(rng: random.Random, n: int, cumulative: list,
                 write_ratio: float, pc_pools: list, max_gap: int,
                 gap_first: bool) -> tuple[list, list, list, list]:
    """The main stream of a trace generator: ``(gaps, writes, pcs,
    regions)`` columns of ``n`` records, the region index standing in
    for the address that :func:`region_addresses` fills in later.

    Per record it draws, in order, the region selector ``u``, the write
    flag, then the PC and the gap (``gap_first``: the gap, then the PC),
    exactly as the record-at-a-time generators did.  Bounded draws inline
    CPython's ``randrange(n)``: ``getrandbits(n.bit_length())``, drawn
    again while ``>= n`` (the algorithm
    :func:`~repro.workloads.patterns.randbelow` pins)."""
    if not all(pc_pools):
        raise ValueError("every region needs at least one PC")
    random_ = rng.random
    getrandbits = rng.getrandbits
    last = len(cumulative) - 1
    pools = [(pool, len(pool), len(pool).bit_length()) for pool in pc_pools]
    gap_bits = max_gap.bit_length()
    gaps = [0] * n
    writes = [False] * n
    pcs = [0] * n
    regions = [0] * n
    for i in range(n):
        u = random_()
        r = 0
        while cumulative[r] < u and r < last:
            r += 1
        regions[i] = r
        writes[i] = random_() < write_ratio
        pool, size, bits = pools[r]
        if gap_first:
            gap = getrandbits(gap_bits)
            while gap >= max_gap:
                gap = getrandbits(gap_bits)
        k = getrandbits(bits)
        while k >= size:
            k = getrandbits(bits)
        pcs[i] = pool[k]
        if not gap_first:
            gap = getrandbits(gap_bits)
            while gap >= max_gap:
                gap = getrandbits(gap_bits)
        gaps[i] = gap
    return gaps, writes, pcs, regions


def region_addresses(regions: list, patterns: list, bases: list) -> list:
    """The address column: each record's next offset in its region's
    pattern, plus the region's base.  One :meth:`~repro.workloads.
    patterns.Pattern.take` per region is exact, because every pattern
    owns a random stream of its own."""
    streams = [
        map(base.__add__, pattern.take(regions.count(r)))
        for r, (pattern, base) in enumerate(zip(patterns, bases))
    ]
    return list(map(next, map(streams.__getitem__, regions)))
