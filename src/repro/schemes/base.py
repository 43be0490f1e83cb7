"""Inclusion-scheme interface.

Every design fills the LLC the same way (:meth:`InclusionScheme.install`):
the block's home set, its first invalid way if it has one, else the way
the scheme's :meth:`~InclusionScheme.victim` rule frees, evicted (dirty
data to memory) if it still holds a block.  The designs differ only in
that rule: which candidate it picks and what it does to the private
caches (back-invalidation) or to the block (relocation) before handing
the way over.  Schemes also receive content-change notifications so that
designs maintaining per-set metadata (the ZIV property vectors) can stay
coherent.
"""

from __future__ import annotations

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

    def install(self, addr: int, ctx: AccessContext) -> None:
        """Install ``addr`` into its home set: the first invalid way, else
        the way :meth:`victim` frees, evicted if it still holds a block."""
        llc = self.cmp.llc
        bank = llc.bank_of(addr)
        set_idx = llc.set_of(addr)
        cache = llc.banks[bank]
        way = cache.find_invalid_way(set_idx)
        full = way < 0
        if full:
            way = self.victim(bank, set_idx, ctx)
            if cache.blocks[set_idx][way].valid:
                self._evict_clean_or_writeback(bank, set_idx, way, ctx)
        cache.install(set_idx, way, addr, ctx)
        self.after_set_update(bank, set_idx)
        if full:
            self.after_replacement(bank, set_idx, way, ctx)

    def victim(self, bank: int, set_idx: int, ctx: AccessContext) -> int:
        """The way of the full set (bank, set_idx) a fill takes, after
        whatever the design does to its block first (back-invalidate its
        private copies, or relocate it).  Default: the baseline policy's
        victim, left in the private caches (the non-inclusive rule)."""
        return self.cmp.llc.banks[bank].policy.victim(set_idx, ctx)

    # -- notifications (default: no-op) --------------------------------------------

    def after_set_update(self, bank: int, set_idx: int) -> None:
        """The contents, flags, or replacement order of (bank, set)
        changed.  ZIV refreshes its property vectors here."""

    def after_replacement(
        self, bank: int, set_idx: int, way: int, ctx: AccessContext
    ) -> None:
        """A fill of the full set (bank, set_idx) took ``way``.  ECI
        invalidates the next victim early here."""

    def on_stats(self) -> dict:
        """Scheme-specific statistics for reporting."""
        return {}

    # -- shared helpers -------------------------------------------------------------

    def _evict_clean_or_writeback(
        self, bank: int, set_idx: int, way: int, ctx: AccessContext
    ) -> None:
        """Evict (bank, set, way) from the LLC; forward dirty data to
        memory.  Does not touch the directory or private caches."""
        blk = self.cmp.llc.banks[bank].evict_way(set_idx, way, ctx)
        if blk.dirty:
            self.cmp.writeback_to_memory(blk.addr, ctx)
