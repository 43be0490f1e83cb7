"""Per-core private cache hierarchy (L1 + L2, non-inclusive).

The paper's cores have split 32 KB L1 caches and a unified private L2; the
private levels are non-inclusive with respect to each other (footnote 3).
We model a unified L1 (the traces carry data accesses; instruction fetch
adds nothing to the inclusion-victim story) and mirror the notice protocol
exactly: an *eviction notice* (dataless, or a writeback when dirty) is sent
to the home LLC bank only when a block leaves the **last** private location
in this core -- i.e. when it is evicted from the L2 while absent from the
L1, or evicted from the L1 while absent from the L2 (III-A, III-D6).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.set_assoc import AccessContext, SetAssociativeCache
from repro.cache.replacement.lru import LRUPolicy
from repro.params import CacheGeometry


class PrivateEviction:
    """A block leaving this core's private hierarchy entirely.

    Carries the CHAR classification attributes sampled from the departing
    block: whether it arrived through a prefetch, whether it was filled via
    an LLC hit, how many demand reuses it saw in the L2, and its dirtiness
    (paper III-D6)."""

    __slots__ = ("addr", "dirty", "fill_hit", "demand_reuses", "prefetched")

    def __init__(
        self,
        addr: int,
        dirty: bool,
        fill_hit: bool,
        demand_reuses: int,
        prefetched: bool = False,
    ) -> None:
        self.addr = addr
        self.dirty = dirty
        self.fill_hit = fill_hit
        self.demand_reuses = demand_reuses
        self.prefetched = prefetched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Evict {self.addr:#x} dirty={self.dirty} "
            f"reuses={self.demand_reuses}>"
        )


class PrivateHierarchy:
    """One core's L1 + L2 with the eviction-notice protocol."""

    __slots__ = ("core", "l1", "l2", "l1_latency", "l2_latency")

    def __init__(
        self, core: int, l1_geom: CacheGeometry, l2_geom: CacheGeometry
    ) -> None:
        self.core = core
        self.l1 = SetAssociativeCache(
            l1_geom.sets, l1_geom.ways, LRUPolicy(), name=f"L1[{core}]"
        )
        self.l2 = SetAssociativeCache(
            l2_geom.sets, l2_geom.ways, LRUPolicy(), name=f"L2[{core}]"
        )
        self.l1_latency = l1_geom.latency
        self.l2_latency = l2_geom.latency

    # -- probes ------------------------------------------------------------

    def in_l1(self, addr: int) -> bool:
        return self.l1.contains(addr)

    def in_l2(self, addr: int) -> bool:
        return self.l2.contains(addr)

    def has_block(self, addr: int) -> bool:
        return self.l1.contains(addr) or self.l2.contains(addr)

    def resident_addrs(self) -> set[int]:
        return self.l1.resident_addrs() | self.l2.resident_addrs()

    # -- hits ----------------------------------------------------------------

    def hit_l1_at(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        """Fast-path L1 hit when the caller already located the block
        (the hierarchy's access loop probes before dispatching)."""
        l1 = self.l1
        l1.policy.on_hit(set_idx, way, ctx)
        if ctx.is_write:
            l1.blocks[set_idx][way].dirty = True

    def hit_l2(self, addr: int, ctx: AccessContext) -> list[PrivateEviction]:
        """L2 hit after an L1 miss: count the demand reuse and pull the
        block up into the L1.  Returns any resulting eviction notices."""
        l2 = self.l2
        set_idx = l2.set_index(addr)
        return self.hit_l2_at(addr, set_idx, l2.index[set_idx][addr], ctx)

    def hit_l2_at(
        self, addr: int, set_idx: int, way: int, ctx: AccessContext
    ) -> list[PrivateEviction]:
        """Fast-path L2 hit at a known (set, way) location."""
        l2 = self.l2
        l2.policy.on_hit(set_idx, way, ctx)
        blk = l2.blocks[set_idx][way]
        blk.demand_reuses += 1
        blk.prefetched = False  # first demand touch ends prefetch status
        if ctx.is_write:
            blk.dirty = True
        return self._fill_l1(addr, ctx, dirty=False)

    # -- fills ----------------------------------------------------------------

    def fill(
        self, addr: int, ctx: AccessContext, fill_hit: bool
    ) -> list[PrivateEviction]:
        """Fill a block fetched from the LLC/memory into L2 then L1.

        ``fill_hit`` records whether the fill came from an LLC hit (a CHAR
        classification attribute).  Returns the eviction notices produced.
        """
        notices = self._fill_l2(addr, ctx, fill_hit)
        notices.extend(self._fill_l1(addr, ctx, dirty=ctx.is_write))
        return notices

    def fill_l2_only(
        self, addr: int, ctx: AccessContext, fill_hit: bool
    ) -> list[PrivateEviction]:
        """Prefetch fill: the block lands in the L2 (not the L1), marked
        ``prefetched`` until its first demand touch."""
        notices = self._fill_l2(addr, ctx, fill_hit, prefetched=True)
        return notices

    def _fill_l2(
        self, addr: int, ctx: AccessContext, fill_hit: bool,
        prefetched: bool = False,
    ) -> list[PrivateEviction]:
        notices: list[PrivateEviction] = []
        set_idx = self.l2.set_index(addr)
        way = self.l2.find_invalid_way(set_idx)
        if way < 0:
            way = self.l2.policy.victim(set_idx, ctx)
            old = self.l2.evict_way(set_idx, way, ctx)
            notice = self._on_l2_departure(old.addr, old.dirty, old.fill_hit,
                                           old.demand_reuses,
                                           old.prefetched)
            if notice is not None:
                notices.append(notice)
        blk = self.l2.install(set_idx, way, addr, ctx)
        blk.dirty = ctx.is_write and not prefetched
        blk.fill_hit = fill_hit
        blk.demand_reuses = 0
        blk.prefetched = prefetched
        return notices

    def _fill_l1(
        self, addr: int, ctx: AccessContext, dirty: bool
    ) -> list[PrivateEviction]:
        notices: list[PrivateEviction] = []
        set_idx = self.l1.set_index(addr)
        if self.l1.contains(addr):
            way = self.l1.touch(addr, ctx)
            if dirty or ctx.is_write:
                self.l1.block_at(set_idx, way).dirty = True
            return notices
        way = self.l1.find_invalid_way(set_idx)
        if way < 0:
            way = self.l1.policy.victim(set_idx, ctx)
            old = self.l1.evict_way(set_idx, way, ctx)
            notice = self._on_l1_departure(old.addr, old.dirty)
            if notice is not None:
                notices.append(notice)
        blk = self.l1.install(set_idx, way, addr, ctx)
        blk.dirty = dirty or ctx.is_write
        return notices

    # -- departures -------------------------------------------------------------

    def _on_l2_departure(
        self, addr: int, dirty: bool, fill_hit: bool, reuses: int,
        prefetched: bool = False,
    ) -> Optional[PrivateEviction]:
        """An L2 block was evicted.  If the L1 still holds the block, the
        block stays in the core (dirtiness migrates up); otherwise it left
        the core and a notice must be sent."""
        if self.l1.contains(addr):
            if dirty:
                s = self.l1.set_index(addr)
                w = self.l1.index[s][addr]
                self.l1.block_at(s, w).dirty = True
            return None
        return PrivateEviction(addr, dirty, fill_hit, reuses, prefetched)

    def _on_l1_departure(self, addr: int, dirty: bool) -> Optional[PrivateEviction]:
        """An L1 block was evicted.  If the L2 holds it, merge dirtiness
        down; otherwise the block left the core."""
        if self.l2.contains(addr):
            if dirty:
                s = self.l2.set_index(addr)
                w = self.l2.index[s][addr]
                self.l2.block_at(s, w).dirty = True
            return None
        # The block was L1-only (non-inclusive residue): CHAR attributes
        # are no longer available, so report the neutral classification.
        return PrivateEviction(addr, dirty, fill_hit=True, demand_reuses=0)

    # -- external invalidations ---------------------------------------------------

    def invalidate(self, addr: int) -> tuple[int, bool]:
        """Forcefully invalidate every private copy (back-invalidation or
        coherence invalidation).  No eviction notice is generated -- the
        caller *is* the directory side.  Returns (copies invalidated,
        dirty data present)."""
        copies = 0
        dirty = False
        for cache in (self.l1, self.l2):
            set_idx = cache.set_index(addr)
            way = cache.index[set_idx].get(addr, -1)
            if way >= 0:
                blk = cache.evict_way(set_idx, way, AccessContext())
                copies += 1
                dirty = dirty or blk.dirty
        return copies, dirty

    def downgrade(self, addr: int) -> bool:
        """Drop write permission (M -> S) keeping the data.  Returns True
        if dirty data was written back (the caller forwards it home)."""
        dirty = False
        for cache in (self.l1, self.l2):
            set_idx = cache.set_index(addr)
            way = cache.index[set_idx].get(addr, -1)
            if way >= 0:
                blk = cache.block_at(set_idx, way)
                dirty = dirty or blk.dirty
                blk.dirty = False
        return dirty
