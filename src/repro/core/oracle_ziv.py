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
realisable relocation-set property can achieve and lets the ablation
bench measure how close ``LikelyDead``/``MRLikelyDead`` come (see
``benchmarks/bench_ablation_tla_oracle.py``).
"""

from __future__ import annotations

from repro.cache.replacement.belady import NextUseOracle
from repro.cache.set_assoc import AccessContext
from repro.core.ziv import ZIVInvariantError, ZIVScheme


class OracleZIVScheme(ZIVScheme):
    """ZIV whose relocation victim is Belady-optimal among NotInPrC blocks.

    Requires lock-step scheduling (the oracle consumes the canonical
    global stream) -- exactly like the I-MIN motivation runs."""

    def __init__(self, oracle: NextUseOracle) -> None:
        super().__init__(property_name="notinprc")
        self.name = "ziv:oracle"
        self.oracle = oracle

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

    def _relocation_path(self, bank, set_idx, victim_way, addr, ctx):
        cmp = self.cmp
        self.tracker.refresh(bank, set_idx)
        # The home bank, then the others in the cross-bank fallback's
        # order (III-D1); in each, an invalid set first, as in every ZIV
        # design, then the oracle's NotInPrC pick.
        for bank_t in [bank] + self._other_banks(bank):
            cross_bank = bank_t != bank
            rs = self.tracker.pick_global(bank_t, "invalid")
            if rs >= 0:
                cmp.stats.count_property_hit("global:invalid")
                if cross_bank:
                    cmp.stats.relocations_cross_bank += 1
                self._relocate(bank, set_idx, victim_way, bank_t, rs, ctx,
                               level="invalid", cross_bank=cross_bank)
                return self._install_into(bank, set_idx, victim_way, addr,
                                          ctx)
            target = self._find_oracle_victim(bank_t, ctx.global_pos)
            if target is not None:
                break
        else:
            raise ZIVInvariantError(
                "no invalid set or NotInPrC block exists in any bank"
            )
        rs, dst_way = target
        cmp.stats.count_property_hit("global:oracle")
        if rs == set_idx and not cross_bank:
            # The oracle's choice lives in the original set: evict it
            # in place of the baseline victim, no relocation needed.
            cmp.stats.relocation_same_set += 1
            self._evict_clean_or_writeback(bank, set_idx, dst_way, ctx)
            return self._install_into(bank, set_idx, dst_way, addr, ctx)
        self._relocate_to_way(bank, set_idx, victim_way, bank_t, rs,
                              dst_way, ctx)
        return self._install_into(bank, set_idx, victim_way, addr, ctx)

    def _relocate_to_way(self, src_bank, src_set, src_way, dst_bank,
                         dst_set, dst_way, ctx: AccessContext) -> None:
        """Like :meth:`_relocate` but with the destination way chosen by
        the oracle instead of the property-driven selector."""
        cmp = self.cmp
        dst_cache = cmp.llc.banks[dst_bank]
        if dst_cache.blocks[dst_set][dst_way].valid:
            self._assert_clean_victim(dst_bank, dst_set, dst_way)
            self._evict_clean_or_writeback(dst_bank, dst_set, dst_way, ctx)
        moving = cmp.llc.banks[src_bank].extract_way(src_set, src_way)
        was_relocated = moving.relocated
        dst_cache.install_relocated(dst_set, dst_way, moving, ctx)
        entry = cmp.directory.lookup(moving.addr)
        if entry is None:
            raise ZIVInvariantError(
                f"relocating {moving.addr:#x} with no directory entry"
            )
        entry.set_relocation(dst_bank, dst_set, dst_way)
        cmp.stats.relocations += 1
        if was_relocated:
            cmp.stats.relocations_rechained += 1
        if dst_bank != src_bank:
            cmp.stats.relocations_cross_bank += 1
        cmp.energy.record_relocation()
        self.reloc.record(src_bank, ctx.cycle)
        telemetry = cmp.telemetry
        if telemetry is not None:
            kind = (
                "cross_bank_fallback" if dst_bank != src_bank
                else "re_relocation" if was_relocated
                else "relocation"
            )
            telemetry.emit(
                kind,
                addr=moving.addr,
                src=[src_bank, src_set, src_way],
                dst=[dst_bank, dst_set, dst_way],
                property="oracle",
                rechained=was_relocated,
                cross_bank=dst_bank != src_bank,
            )
        self.after_set_update(src_bank, src_set)
        self.after_set_update(dst_bank, dst_set)
