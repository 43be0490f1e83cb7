"""A generic set-associative cache array with pluggable replacement.

The array stores :class:`~repro.cache.block.CacheBlock` objects and keeps a
per-set ``dict`` from block address to way for O(1) lookup.  Replacement is
delegated to a :class:`~repro.cache.replacement.base.ReplacementPolicy`
strategy object; the array itself only handles the *Invalid-first* rule
(an invalid way is always filled before any valid block is victimised),
which every design in the paper shares.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache.block import CacheBlock


class AccessContext:
    """Per-access context threaded through replacement policies.

    ``global_pos`` is the position of the access in the canonical global
    access stream; it drives the Belady MIN oracle and Hawkeye's OPTgen.
    """

    __slots__ = ("core", "pc", "is_write", "global_pos", "cycle")

    def __init__(
        self,
        core: int = 0,
        pc: int = 0,
        is_write: bool = False,
        global_pos: int = 0,
        cycle: int = 0,
    ) -> None:
        self.core = core
        self.pc = pc
        self.is_write = is_write
        self.global_pos = global_pos
        self.cycle = cycle


class SetAssociativeCache:
    """Set-associative block array.

    Parameters
    ----------
    sets, ways:
        Geometry.  ``sets`` must be a power of two.
    policy:
        Replacement policy strategy (attached via ``policy.attach(self)``).
    name:
        Used in error messages and repr.
    """

    __slots__ = (
        "sets", "ways", "name", "index_shift", "set_mask", "blocks",
        "index", "policy",
    )

    def __init__(
        self,
        sets: int,
        ways: int,
        policy,
        name: str = "cache",
        index_shift: int = 0,
    ) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"sets must be a power of two, got {sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.sets = sets
        self.ways = ways
        self.name = name
        self.index_shift = index_shift
        self.set_mask = sets - 1  # precomputed: probed on every access
        self.blocks = [[CacheBlock() for _ in range(ways)] for _ in range(sets)]
        self.index = [dict() for _ in range(sets)]  # addr -> way
        self.policy = policy
        policy.attach(self)

    # -- geometry -----------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> self.index_shift) & self.set_mask

    # -- lookup -------------------------------------------------------------

    def probe(self, addr: int) -> int:
        """Way holding ``addr`` in its home set, or -1 (no state change).

        Relocated blocks are *not* visible to a probe: the paper's LLC
        lookup "considers only the blocks with the Relocated state off"
        (III-C1); relocated blocks are reached via the directory pointer.
        """
        set_idx = (addr >> self.index_shift) & self.set_mask
        way = self.index[set_idx].get(addr, -1)
        if way >= 0 and self.blocks[set_idx][way].relocated:
            return -1
        return way

    def contains(self, addr: int) -> bool:
        return self.probe(addr) >= 0

    def block_at(self, set_idx: int, way: int) -> CacheBlock:
        return self.blocks[set_idx][way]

    # -- state changes ------------------------------------------------------

    def touch(self, addr: int, ctx: AccessContext) -> int:
        """Record a hit on ``addr``; returns the way (must be present)."""
        set_idx = self.set_index(addr)
        way = self.index[set_idx][addr]
        self.policy.on_hit(set_idx, way, ctx)
        return way

    def find_invalid_way(self, set_idx: int) -> int:
        for way, blk in enumerate(self.blocks[set_idx]):
            if not blk.valid:
                return way
        return -1

    def choose_victim_way(self, set_idx: int, ctx: AccessContext) -> int:
        """Invalid way if any, else the policy's victim."""
        way = self.find_invalid_way(set_idx)
        if way >= 0:
            return way
        return self.policy.victim(set_idx, ctx)

    def ranked_victims(self, set_idx: int, ctx: AccessContext) -> Iterator[int]:
        """Valid ways in the policy's victimisation order (best first).

        Used by QBS/SHARP, which walk the candidate list."""
        return self.policy.ranked_victims(set_idx, ctx)

    def evict_way(self, set_idx: int, way: int, ctx: AccessContext) -> CacheBlock:
        """Remove the block at (set, way); returns it (caller reads state
        *before* the next fill reuses the object)."""
        blk = self.blocks[set_idx][way]
        if not blk.valid:
            raise LookupError(f"{self.name}: evicting invalid way {way}")
        self.policy.on_evict(set_idx, way, ctx)
        del self.index[set_idx][blk.addr]
        blk.valid = False
        return blk

    def install(
        self, set_idx: int, way: int, addr: int, ctx: AccessContext
    ) -> CacheBlock:
        """Fill ``addr`` into (set, way); the way must be invalid."""
        blk = self.blocks[set_idx][way]
        if blk.valid:
            raise LookupError(
                f"{self.name}: install into valid way {way} of set {set_idx}"
            )
        blk.reset()
        blk.addr = addr
        blk.valid = True
        self.index[set_idx][addr] = way
        self.policy.on_fill(set_idx, way, ctx)
        return blk

    def install_relocated(
        self, set_idx: int, way: int, source: CacheBlock, ctx: AccessContext
    ) -> CacheBlock:
        """Place a relocated block (copied from ``source``) at (set, way).

        The relocated block keeps its address, dirtiness and CHAR tag, and
        enters the set with the ``Relocated`` state on.  The replacement
        state is initialised as a normal fill so the baseline policy can
        later victimise it (triggering re-relocation, paper III-C3).
        """
        blk = self.blocks[set_idx][way]
        if blk.valid:
            raise LookupError(
                f"{self.name}: relocating into valid way {way} of set {set_idx}"
            )
        blk.reset()
        blk.addr = source.addr
        blk.valid = True
        blk.dirty = source.dirty
        blk.relocated = True
        blk.not_in_prc = False  # a live relocated block is privately cached
        blk.likely_dead = False
        blk.char_tag = source.char_tag
        blk.last_pc = source.last_pc
        self.index[set_idx][blk.addr] = way
        self.policy.on_relocation_fill(set_idx, way, ctx)
        return blk

    def extract_way(self, set_idx: int, way: int) -> CacheBlock:
        """Pull a block out of the array for relocation.

        Unlike :meth:`evict_way`, the policy's eviction hook is *not*
        called: the block is not leaving the LLC, so e.g. Hawkeye must not
        detrain its load PC."""
        blk = self.blocks[set_idx][way]
        if not blk.valid:
            raise LookupError(f"{self.name}: extracting invalid way {way}")
        del self.index[set_idx][blk.addr]
        blk.valid = False
        return blk

    def promote(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        """Make a block maximally hard to evict (QBS's move-to-MRU)."""
        self.policy.promote(set_idx, way, ctx)

    # -- iteration / introspection -------------------------------------------

    def iter_valid(self) -> Iterator[tuple[int, int, CacheBlock]]:
        for set_idx, ways in enumerate(self.blocks):
            for way, blk in enumerate(ways):
                if blk.valid:
                    yield set_idx, way, blk

    def resident_addrs(self) -> set[int]:
        return {blk.addr for _, _, blk in self.iter_valid()}

    def occupancy(self) -> int:
        return sum(1 for _ in self.iter_valid())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} {self.sets}x{self.ways} "
            f"occ={self.occupancy()}>"
        )
