"""Oracle-assisted ZIV: the paper's Section VI future-work study.

    "One can compute the optimal relocation victim from among the LLC
    blocks that are not resident in the private caches for a given private
    cache capacity.  Future work needs to explore how close one can get to
    this oracle-assisted optimal selection."

This module implements that oracle: a ZIV variant that, when a relocation
is needed, evicts the **NotInPrC block with the furthest next use in the
global access stream** anywhere in the home bank (falling back across
banks, where an invalid set again comes first), using the same
lock-step Belady oracle as the I-MIN study.  It upper-bounds what any
realisable relocation-set property can achieve and lets the oracle-gap
ablation measure how close ``NotInPrC``/``LikelyDead`` come (see
``oracle_gap`` in :mod:`repro.experiments.ablations`).

A recipe names it ``ziv:oracle``: it then runs lock-step, and
:meth:`RunRecipe.execute <repro.sim.parallel.RunRecipe.execute>` hands
it the memoized next-use oracle of the workload's lock-step stream, as
it does a Belady LLC.
"""

from __future__ import annotations

from repro.cache.replacement.belady import NextUseOracle
from repro.core.ziv import ZIVInvariantError, ZIVScheme


class OracleZIVScheme(ZIVScheme):
    """ZIV whose relocation victim is Belady-optimal among NotInPrC blocks.

    Requires lock-step scheduling (the oracle consumes the canonical
    global stream) -- exactly like the I-MIN motivation runs.  It builds
    without an oracle, so a recipe naming it can be validated, but binds
    to a hierarchy only with one."""

    def __init__(self, oracle: NextUseOracle | None = None) -> None:
        if oracle is not None and not isinstance(oracle, NextUseOracle):
            raise TypeError("ziv:oracle takes a NextUseOracle as oracle")
        super().__init__(property_name="notinprc")
        self.name = "ziv:oracle"
        self.oracle = oracle

    def bind(self, cmp) -> None:
        if self.oracle is None:
            raise ValueError("ziv:oracle requires a next-use oracle")
        super().bind(cmp)

    def _find_oracle_victim(self, bank: int, pos: int):
        """(set, way) of the NotInPrC block with the furthest next use in
        ``bank``; None if the bank holds no NotInPrC block."""
        best = None
        best_next = -1
        cache = self.cmp.llc.banks[bank]
        for set_idx in range(cache.sets):
            for way, blk in enumerate(cache.blocks[set_idx]):
                if blk.valid and blk.not_in_prc:
                    nxt = self.oracle.next_use(blk.addr, pos)
                    if nxt > best_next:
                        best = (set_idx, way)
                        best_next = nxt
        return best

    def _relocation_path(self, bank, set_idx, victim_way, ctx):
        cmp = self.cmp
        self.tracker.refresh(bank, set_idx)
        # The home bank, then the others in the cross-bank fallback's
        # order (III-D1); in each, an invalid set first, as in every ZIV
        # design, then the oracle's NotInPrC pick.
        for bank_t in [bank] + self._other_banks(bank):
            rs = self.tracker.pick_global(bank_t, "invalid")
            if rs >= 0:
                cmp.stats.count_property_hit("global:invalid")
                self._relocate(bank, set_idx, victim_way, bank_t, rs, ctx,
                               "invalid")
                return victim_way
            target = self._find_oracle_victim(bank_t, ctx.global_pos)
            if target is not None:
                break
        else:
            raise ZIVInvariantError(
                "no invalid set or NotInPrC block exists in any bank"
            )
        rs, dst_way = target
        cmp.stats.count_property_hit("global:oracle")
        if bank_t == bank and rs == set_idx:
            # The oracle's choice lives in the original set: the fill
            # takes its way, no relocation needed.
            cmp.stats.relocation_same_set += 1
            return dst_way
        self._relocate(bank, set_idx, victim_way, bank_t, rs, ctx, "oracle",
                       dst_way)
        return victim_way
