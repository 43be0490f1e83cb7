"""Inclusion-scheme interface.

A scheme owns the LLC fill path: given a block to install, it selects the
victim, performs any back-invalidations / relocations / writebacks through
the hierarchy's helpers, and installs the new block.  Schemes also receive
content-change notifications so that designs maintaining per-set metadata
(the ZIV property vectors) can stay coherent.
"""

from __future__ import annotations

from repro.cache.block import CacheBlock
from repro.cache.set_assoc import AccessContext


class InclusionScheme:
    """Strategy for LLC victim selection and inclusion maintenance."""

    name = "abstract"
    inclusive = True
    #: Whether the scheme consumes CHAR dead-block inference hints.
    needs_char = False
    #: Whether the scheme guarantees zero LLC-eviction inclusion victims
    #: (the ZIV invariant; audited by :mod:`repro.sim.audit`).
    zero_inclusion_victims = False

    def __init__(self) -> None:
        self.cmp = None

    def bind(self, cmp) -> None:
        """Attach to a :class:`~repro.hierarchy.cmp.CacheHierarchy`."""
        if self.cmp is not None:
            raise RuntimeError("scheme already bound")
        self.cmp = cmp

    # -- the fill path -----------------------------------------------------------

    def install(self, addr: int, ctx: AccessContext) -> CacheBlock:
        """Install ``addr`` into the LLC, making room as the scheme
        dictates.  Must leave the hierarchy consistent."""
        raise NotImplementedError

    # -- notifications (default: no-op) --------------------------------------------

    def after_set_update(self, bank: int, set_idx: int) -> None:
        """The contents, flags, or replacement order of (bank, set)
        changed.  ZIV refreshes its property vectors here."""

    def on_stats(self) -> dict:
        """Scheme-specific statistics for reporting."""
        return {}

    # -- shared helpers -------------------------------------------------------------

    def _install_into(
        self, bank: int, set_idx: int, way: int, addr: int, ctx: AccessContext
    ) -> CacheBlock:
        blk = self.cmp.llc.banks[bank].install(set_idx, way, addr, ctx)
        self.after_set_update(bank, set_idx)
        return blk

    def _evict_clean_or_writeback(
        self, bank: int, set_idx: int, way: int, ctx: AccessContext
    ) -> CacheBlock:
        """Evict (bank, set, way) from the LLC; forward dirty data to
        memory.  Does not touch the directory or private caches."""
        blk = self.cmp.llc.banks[bank].evict_way(set_idx, way, ctx)
        if blk.dirty:
            self.cmp.writeback_to_memory(blk.addr, ctx)
        return blk

    def _baseline_fill(
        self, bank: int, set_idx: int, addr: int, ctx: AccessContext,
        back_invalidate: bool,
    ) -> CacheBlock:
        """The canonical fill: invalid way if any, else the baseline
        policy's victim; optionally back-invalidate private copies of the
        victim (the inclusive baseline's behaviour)."""
        cache = self.cmp.llc.banks[bank]
        way = cache.find_invalid_way(set_idx)
        if way < 0:
            way = cache.policy.victim(set_idx, ctx)
            victim = cache.blocks[set_idx][way]
            if back_invalidate:
                self.cmp.back_invalidate(victim.addr)
            self._evict_clean_or_writeback(bank, set_idx, way, ctx)
        return self._install_into(bank, set_idx, way, addr, ctx)
