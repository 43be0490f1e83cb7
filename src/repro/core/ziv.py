"""The Zero Inclusion Victim LLC scheme (paper Section III).

The ZIV LLC is an inclusive LLC that **never back-invalidates**: when the
baseline replacement policy picks a victim with privately cached copies,
the victim is *relocated* to another LLC set instead of being evicted.  The
destination -- the relocation set -- is chosen through a priority ladder of
per-set properties tracked by property vectors (III-D); at every priority
level the original set is checked before the global round-robin pointer, so
relocation happens only when strictly necessary.  Relocated blocks are
reached through their sparse-directory entry, which records the
``<bank, set, way>`` tuple (III-C), and die when their last private copy is
evicted (III-C2).

Variants (``property_name``):

``notinprc``          relocate into any set holding a non-private block
``lrunotinprc``       prefer sets whose LRU block is non-private
``maxrrpvnotinprc``   prefer sets holding a cache-averse non-private block
                      (pairs with Hawkeye/RRIP baselines; "MRNotInPrC")
``likelydead``        prefer sets holding a CHAR-inferred dead block
                      ("LikelyDeadNotInPrC", pairs with an LRU baseline)
``mrlikelydead``      combine Hawkeye's classification with CHAR's
                      ("MaxRRPVLikelyDeadNotInPrC")
"""

from __future__ import annotations

from repro.cache.set_assoc import AccessContext
from repro.core.properties import PROPERTY_LADDERS, PropertyTracker
from repro.core.relocation import RelocationTracker
from repro.schemes.base import InclusionScheme


class ZIVInvariantError(RuntimeError):
    """Raised when no inclusion-victim-free victim exists anywhere -- which
    the paper proves impossible while aggregate private capacity is below
    the LLC capacity."""


class ZIVScheme(InclusionScheme):
    inclusive = True
    #: The paper's central guarantee: LLC replacement never produces an
    #: inclusion victim.  The runtime auditor (repro.sim.audit) holds the
    #: back-invalidation counters to exactly zero for this scheme.
    zero_inclusion_victims = True

    def __init__(
        self, property_name: str = "notinprc", round_robin: bool = True
    ) -> None:
        super().__init__()
        if property_name not in PROPERTY_LADDERS:
            raise ValueError(
                f"unknown ZIV property {property_name!r}; known: "
                f"{sorted(PROPERTY_LADDERS)}"
            )
        self.property_name = property_name
        self.ladder = PROPERTY_LADDERS[property_name]
        self.name = f"ziv:{property_name}"
        self.needs_char = "likelydeadnotinprc" in self.ladder
        #: Ablation knob: False replaces the round-robin nextRS with a
        #: fixed lowest-set-bit choice, concentrating relocation load.
        self.round_robin = round_robin
        self.tracker: PropertyTracker | None = None
        self.reloc: RelocationTracker | None = None

    def bind(self, cmp) -> None:
        super().bind(cmp)
        self.tracker = PropertyTracker(cmp.llc, self.ladder)
        if not self.round_robin:
            for bank_pvs in self.tracker.pvs:
                for pv in bank_pvs.values():
                    pv.round_robin = False
        self.reloc = RelocationTracker(
            cmp.llc.geometry.banks,
            fifo_depth=cmp.config.relocation_fifo_depth,
            nextrs_latency=cmp.config.nextrs_latency,
        )

    # -- notifications -----------------------------------------------------------

    def after_set_update(self, bank: int, set_idx: int) -> None:
        self.tracker.refresh(bank, set_idx)

    # -- the victim rule -------------------------------------------------------------

    def victim(self, bank: int, set_idx: int, ctx: AccessContext) -> int:
        cmp = self.cmp
        cache = cmp.llc.banks[bank]
        victim_way = cache.policy.victim(set_idx, ctx)
        if not cmp.privately_cached(cache.blocks[set_idx][victim_way].addr):
            # The common case: the baseline victim generates no inclusion
            # victims, so the ZIV LLC behaves exactly like the baseline.
            return victim_way
        return self._relocation_path(bank, set_idx, victim_way, ctx)

    # -- relocation machinery ---------------------------------------------------------

    def _relocation_path(
        self, bank: int, set_idx: int, victim_way: int, ctx: AccessContext
    ) -> int:
        """The baseline victim is privately cached: walk the property
        ladder (original set first, then global, per level).  Returns the
        way the fill takes: another block of the set, or the victim's
        way once the victim has moved."""
        cmp = self.cmp
        # Victim selection may have aged replacement state (e.g. SRRIP), so
        # make sure the original set's property bits are current.
        self.tracker.refresh(bank, set_idx)
        for level in self.ladder:
            # (a) Original set satisfying the property: pick a different
            # in-set victim, no relocation needed (paper III-D4).
            if self.tracker.satisfies(bank, set_idx, level):
                way = self.tracker.select_relocation_victim(
                    bank, set_idx, self.property_name
                )
                if way >= 0:
                    self._assert_clean_victim(bank, set_idx, way)
                    cmp.stats.relocation_same_set += 1
                    cmp.stats.count_property_hit(f"local:{level}")
                    return way
            # (b) Global relocation set through the PV's nextRS.
            rs = self.tracker.pick_global(bank, level)
            if rs >= 0:
                cmp.stats.count_property_hit(f"global:{level}")
                self._relocate(bank, set_idx, victim_way, bank, rs, ctx, level)
                return victim_way
            if level == "likelydeadnotinprc" and cmp.char is not None:
                # Empty LikelyDeadNotInPrC PV: ask CHAR to lower d.
                cmp.char.on_pv_empty(bank)

        # Every PV of this bank is empty: all blocks in the bank are
        # privately cached.  Fall back to cross-bank relocation (III-D1).
        target = self._find_cross_bank_target(bank)
        if target is None:
            raise ZIVInvariantError(
                "no relocation set exists in any bank; aggregate private "
                "capacity must exceed the LLC capacity"
            )
        rbank, rs, level = target
        self._relocate(bank, set_idx, victim_way, rbank, rs, ctx, level)
        return victim_way

    def _other_banks(self, bank: int) -> list[int]:
        """The banks a cross-bank relocation tries, in order: one-hop
        neighbours first, then the remaining banks."""
        banks = self.cmp.llc.geometry.banks
        order = []
        if banks > 1:
            order = [(bank + 1) % banks, (bank - 1) % banks]
            order += [b for b in range(banks) if b != bank and b not in order]
        return order

    def _find_cross_bank_target(
        self, bank: int
    ) -> tuple[int, int, str] | None:
        """The first bank of :meth:`_other_banks` with a relocation set.
        Returns (bank, relocation set, satisfied property level)."""
        for b in self._other_banks(bank):
            for level in self.ladder:
                rs = self.tracker.pick_global(b, level)
                if rs >= 0:
                    return b, rs, level
        return None

    def _relocate(
        self,
        src_bank: int,
        src_set: int,
        src_way: int,
        dst_bank: int,
        dst_set: int,
        ctx: AccessContext,
        level: str,
        dst_way: int = -1,
    ) -> None:
        """Move the block at (src_bank, src_set, src_way) into the chosen
        relocation set, evicting an inclusion-victim-free block there:
        ``dst_way`` when the caller chose it (the oracle design), else
        the way the property-driven selector picks.  A move to another
        bank is the III-D1 fallback and counts as a cross-bank relocation.

        ``level`` names the property-ladder rung (or the oracle) that
        supplied the relocation set; it only labels the telemetry event."""
        cmp = self.cmp
        dst_cache = cmp.llc.banks[dst_bank]
        if dst_way < 0:
            dst_way = self.tracker.select_relocation_victim(
                dst_bank, dst_set, self.property_name
            )
            if dst_way < 0:
                raise ZIVInvariantError(
                    f"relocation set {dst_set} of bank {dst_bank} has no "
                    "evictable block despite its property bit"
                )
        if dst_cache.blocks[dst_set][dst_way].valid:
            self._assert_clean_victim(dst_bank, dst_set, dst_way)
            self._evict_clean_or_writeback(dst_bank, dst_set, dst_way, ctx)

        src_cache = cmp.llc.banks[src_bank]
        moving = src_cache.extract_way(src_set, src_way)
        was_relocated = moving.relocated
        dst_cache.install_relocated(dst_set, dst_way, moving, ctx)

        # Record the new location in the block's sparse-directory entry.
        # (The hardware reaches the entry through the back-pointer stored
        # in the relocated block's tag, III-C3; the functional model looks
        # the entry up by address.)
        entry = cmp.directory.lookup(moving.addr)
        if entry is None:
            raise ZIVInvariantError(
                f"relocating {moving.addr:#x} with no directory entry"
            )
        entry.set_relocation(dst_bank, dst_set, dst_way)

        cmp.stats.relocations += 1
        if was_relocated:
            cmp.stats.relocations_rechained += 1
        cross_bank = dst_bank != src_bank
        if cross_bank:
            cmp.stats.relocations_cross_bank += 1
        cmp.energy.record_relocation()
        self.reloc.record(src_bank, ctx.cycle)
        cmp.stats.relocation_fifo_peak = max(
            cmp.stats.relocation_fifo_peak, self.reloc.fifo_peak
        )
        telemetry = cmp.telemetry
        if telemetry is not None:
            kind = (
                "cross_bank_fallback" if cross_bank
                else "re_relocation" if was_relocated
                else "relocation"
            )
            telemetry.emit(
                kind,
                addr=moving.addr,
                src=[src_bank, src_set, src_way],
                dst=[dst_bank, dst_set, dst_way],
                property=level,
                rechained=was_relocated,
                cross_bank=cross_bank,
            )
        self.after_set_update(src_bank, src_set)
        self.after_set_update(dst_bank, dst_set)

    def _assert_clean_victim(self, bank: int, set_idx: int, way: int) -> None:
        blk = self.cmp.llc.banks[bank].blocks[set_idx][way]
        if blk.valid and self.cmp.privately_cached(blk.addr):
            raise ZIVInvariantError(
                f"relocation-set victim {blk.addr:#x} is privately cached"
            )

    # -- reporting -------------------------------------------------------------------

    def on_stats(self) -> dict:
        pv_flips = sum(
            pv.flips for bank in self.tracker.pvs for pv in bank.values()
        )
        return {
            "property_hits": dict(self.cmp.stats.property_hits),
            "pv_flips": pv_flips,
            "reloc_intervals": self.reloc.intervals_recorded,
            "interval_histogram": dict(self.reloc.interval_log2_histogram),
            "short_intervals": self.reloc.short_intervals,
            "fifo_peak": self.reloc.fifo_peak,
            "fifo_overflows": self.reloc.fifo_overflows,
        }
