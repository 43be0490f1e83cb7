"""The full CMP cache hierarchy and its access flow.

This is the substrate every experiment runs on: per-core private L1+L2
hierarchies, the banked shared LLC, the sliced sparse directory, a MESI-
style invalidation protocol, the CHAR engine (when the scheme wants dead
hints), the DRAM model and energy accounting.  The LLC fill path is
delegated to an :class:`~repro.schemes.base.InclusionScheme`, which is
where the baseline inclusive design, the non-inclusive design, QBS, SHARP,
CHARonBase and the ZIV variants differ.

The protocol is modelled with *atomic transactions*: each access runs to
completion before the next begins, so transient states and races do not
arise.  This is the standard fidelity for trace-driven studies of
replacement behaviour; all quantities the paper reports (miss counts,
inclusion victims, relocations, relative speedups) are content dynamics
that this model captures.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.set_assoc import AccessContext
from repro.coherence.sparse_directory import SparseDirectory
from repro.core.char import CharEngine
from repro.energy.model import EnergyModel
from repro.hierarchy.llc import LastLevelCache
from repro.hierarchy.private import PrivateEviction, PrivateHierarchy
from repro.mem.dram import DRAMModel
from repro.params import SystemConfig
from repro.sim.stats import SimStats


class CoherenceError(RuntimeError):
    """Raised when the hierarchy detects an internal protocol violation."""


class CacheHierarchy:
    """An assembled CMP memory hierarchy."""

    #: Which engine produced a result (ledger provenance).
    engine_name = "object"

    def __init__(
        self,
        config: SystemConfig,
        scheme,
        llc_policy: str = "lru",
        oracle=None,
        policy_kwargs: Optional[dict] = None,
    ) -> None:
        self.config = config
        self.llc = LastLevelCache(
            config.llc, llc_policy, oracle=oracle, policy_kwargs=policy_kwargs
        )
        self.directory = SparseDirectory(
            config.directory, config.llc, mode=config.directory_mode
        )
        self.private = [
            PrivateHierarchy(core, config.l1, config.l2)
            for core in range(config.cores)
        ]
        self.dram = DRAMModel(config.dram)
        self.stats = SimStats.for_cores(config.cores)
        self.scheme = scheme
        self.char: Optional[CharEngine] = None
        # Bound by TelemetryCollector.bind() for the duration of a traced
        # run; None otherwise, so emission sites pay one attribute check.
        self.telemetry = None
        self.energy = EnergyModel(ziv_mode=scheme.name.startswith("ziv"))
        self._wants_hints = getattr(scheme, "wants_private_hit_hints", False)
        from repro.hierarchy.interconnect import make_interconnect

        self.interconnect = make_interconnect(
            config.core, config.cores, config.llc.banks
        )
        from repro.prefetch import make_prefetcher

        self.prefetchers = [
            make_prefetcher(config.prefetch) for _ in range(config.cores)
        ]
        self._prefetch_on = self.prefetchers[0] is not None
        scheme.bind(self)
        if scheme.needs_char:
            self.char = CharEngine(
                config.cores, config.llc.banks, config.char
            )

    # ------------------------------------------------------------------ access

    def access(
        self,
        core: int,
        addr: int,
        is_write: bool = False,
        pc: int = 0,
        cycle: int = 0,
        global_pos: int = 0,
    ) -> int:
        """Run one memory access through the hierarchy; returns its
        latency in cycles.

        This is the per-access inner loop: the L1/L2 probes are inlined
        (one set-index computation and one dict lookup per level, reused
        by the hit path) instead of the generic ``probe``/``touch`` pair.
        Private caches never hold Relocated blocks, so the relocation
        filter in :meth:`SetAssociativeCache.probe` is not needed here.
        """
        ctx = AccessContext(core, pc, is_write, global_pos, cycle)
        cs = self.stats.cores[core]
        cs.accesses += 1
        priv = self.private[core]
        energy = self.energy
        energy.l1_accesses += 1

        l1 = priv.l1
        s1 = (addr >> l1.index_shift) & l1.set_mask
        w1 = l1.index[s1].get(addr, -1)
        if w1 >= 0:
            cs.l1_hits += 1
            extra = 0
            if is_write:
                # A dirty private copy is already in M (dirty => sole owner
                # under MESI), so the upgrade lookup can be skipped.
                if not l1.blocks[s1][w1].dirty:
                    extra = self._write_upgrade(core, addr)
            priv.hit_l1_at(s1, w1, ctx)
            if self._wants_hints:
                self.scheme.on_private_hit(addr, ctx)
            return priv.l1_latency + extra

        cs.l1_misses += 1
        energy.l2_accesses += 1
        l2 = priv.l2
        s2 = (addr >> l2.index_shift) & l2.set_mask
        w2 = l2.index[s2].get(addr, -1)
        if w2 >= 0:
            cs.l2_hits += 1
            l2_blk = l2.blocks[s2][w2]
            if self._prefetch_on and l2_blk.prefetched:
                self.stats.prefetch_useful += 1
            extra = 0
            if is_write and not l2_blk.dirty:
                extra = self._write_upgrade(core, addr)
            notices = priv.hit_l2_at(addr, s2, w2, ctx)
            self._process_notices(core, notices, ctx)
            if self._wants_hints:
                self.scheme.on_private_hit(addr, ctx)
            return priv.l1_latency + priv.l2_latency + extra

        cs.l2_misses += 1
        latency = self._llc_access(core, addr, ctx)
        if self._prefetch_on:
            self._issue_prefetches(core, addr, ctx)
        return latency

    # -------------------------------------------------------------- LLC path

    def _llc_base_latency(self, priv: PrivateHierarchy, core: int,
                          bank: int) -> int:
        return (
            priv.l1_latency
            + priv.l2_latency
            + 2 * self.interconnect.latency(core, bank)
            + self.config.llc.tag_latency
        )

    def _llc_access(self, core: int, addr: int, ctx: AccessContext) -> int:
        """An L2 miss: one of four LLC outcomes runs its front part and
        returns its latency beyond the base; then the one tail every
        outcome shares fills the private caches."""
        priv = self.private[core]
        llc = self.llc
        self.energy.llc_tag_accesses += 1
        self.energy.dir_accesses += 1
        entry = self.directory.lookup(addr)
        lat = self._llc_base_latency(priv, core, llc.bank_of(addr))

        if entry is not None and entry.relocated:
            lat += self._relocated_hit(core, addr, entry, ctx)
            fill_hit = True
        else:
            bank, set_idx, way = llc.location(addr)
            fill_hit = way >= 0
            if fill_hit:
                lat += self._llc_hit(core, addr, entry, bank, set_idx, way,
                                     ctx)
            else:
                self.stats.llc_misses += 1
                if entry is None:
                    lat += self._memory_fill(addr, ctx)
                else:
                    lat += self._forward_fill(core, addr, entry, ctx)

        if entry is None:
            entry = self._allocate_directory_entry(addr, ctx)
        entry.add_sharer(core)
        if ctx.is_write:
            entry.owner = core
        notices = priv.fill(addr, ctx, fill_hit=fill_hit)
        self._process_notices(core, notices, ctx)
        return lat

    def _relocated_hit(
        self, core: int, addr: int, entry, ctx: AccessContext
    ) -> int:
        """Access to a block in the Relocated state (paper III-C1): the
        directory entry supplies the <bank, set, way> location."""
        llc = self.llc
        blk = llc.block(entry.reloc_bank, entry.reloc_set, entry.reloc_way)
        if not blk.relocated or blk.addr != addr:
            raise CoherenceError(
                f"directory relocation pointer for {addr:#x} is stale"
            )
        extra = self._coherence_on_miss(core, addr, entry, ctx)
        llc.banks[entry.reloc_bank].policy.on_hit(
            entry.reloc_set, entry.reloc_way, ctx
        )
        self._char_recall(core, blk)
        self.scheme.after_set_update(entry.reloc_bank, entry.reloc_set)
        self.stats.llc_hits += 1
        self.stats.relocated_hits += 1
        self.energy.llc_data_reads += 1
        return (
            self.config.llc.data_latency
            + self.config.core.relocated_access_penalty
            + extra
        )

    def _llc_hit(
        self, core, addr, entry, bank, set_idx, way, ctx
    ) -> int:
        llc = self.llc
        blk = llc.block(bank, set_idx, way)
        extra = 0
        if entry is not None:
            extra = self._coherence_on_miss(core, addr, entry, ctx)
        llc.banks[bank].touch(addr, ctx)
        self._char_recall(core, blk)
        blk.not_in_prc = False
        blk.likely_dead = False
        self.scheme.after_set_update(bank, set_idx)
        self.stats.llc_hits += 1
        self.energy.llc_data_reads += 1
        return self.config.llc.data_latency + extra

    def _forward_fill(
        self, core: int, addr: int, entry, ctx: AccessContext
    ) -> int:
        """The "fourth case": directory hit, LLC miss.  Possible only in a
        non-inclusive hierarchy: a sharer core supplies the data, and the
        block is re-filled into the LLC."""
        if self.scheme.inclusive:
            raise CoherenceError(
                f"inclusive LLC missed on a directory-tracked block "
                f"{addr:#x}"
            )
        extra = self._coherence_on_miss(core, addr, entry, ctx)
        self.scheme.install(addr, ctx)
        self.energy.llc_data_writes += 1
        return self.config.core.coherence_forward_latency + extra

    def _memory_fill(self, addr: int, ctx: AccessContext) -> int:
        dram_lat = self.dram.access(addr, ctx.cycle)
        self.stats.dram_reads += 1
        self.energy.dram_accesses += 1
        self.scheme.install(addr, ctx)
        self.stats.llc_fills += 1
        self.energy.llc_data_writes += 1
        return dram_lat

    # ------------------------------------------------------------ prefetching

    def _issue_prefetches(self, core: int, addr: int,
                          ctx: AccessContext) -> None:
        """On a demand L2 miss, run the core's prefetch engine and fetch
        its candidates into the L2 + LLC, off the critical path."""
        engine = self.prefetchers[core]
        for candidate in engine.on_demand_miss(addr, ctx.pc):
            self.stats.prefetches_issued += 1
            self._prefetch_fill(core, candidate, ctx)

    def _prefetch_fill(self, core: int, addr: int,
                       ctx: AccessContext) -> None:
        priv = self.private[core]
        if priv.has_block(addr):
            return
        entry = self.directory.lookup(addr)
        if entry is not None and entry.owner >= 0 and entry.owner != core:
            # Never disturb a remote M copy for a speculative fetch.
            return
        pf_ctx = AccessContext(core, ctx.pc, False, ctx.global_pos, ctx.cycle)
        if entry is not None and entry.relocated:
            blk = self.llc.block(
                entry.reloc_bank, entry.reloc_set, entry.reloc_way
            )
            if blk.addr != addr:
                raise CoherenceError("stale relocation pointer in prefetch")
            self.llc.banks[entry.reloc_bank].policy.on_hit(
                entry.reloc_set, entry.reloc_way, pf_ctx
            )
            self.scheme.after_set_update(entry.reloc_bank, entry.reloc_set)
            fill_hit = True
        else:
            bank, set_idx, way = self.llc.location(addr)
            if way >= 0:
                blk = self.llc.block(bank, set_idx, way)
                self.llc.banks[bank].touch(addr, pf_ctx)
                blk.not_in_prc = False
                blk.likely_dead = False
                blk.char_tag = None
                self.scheme.after_set_update(bank, set_idx)
                fill_hit = True
            elif entry is not None:
                # Non-inclusive fourth case: skip speculative forwards.
                return
            else:
                self.dram.access(addr, pf_ctx.cycle)
                self.stats.dram_reads += 1
                self.energy.dram_accesses += 1
                self.scheme.install(addr, pf_ctx)
                self.energy.llc_data_writes += 1
                fill_hit = False
        if entry is None:
            entry = self._allocate_directory_entry(addr, pf_ctx)
        entry.add_sharer(core)
        self.stats.prefetch_fills += 1
        notices = priv.fill_l2_only(addr, pf_ctx, fill_hit=fill_hit)
        self._process_notices(core, notices, ctx)

    # ------------------------------------------------------------- coherence

    def _write_upgrade(self, core: int, addr: int) -> int:
        """S -> M upgrade on a private write hit: invalidate other sharers
        through the directory.  Returns the extra latency."""
        entry = self.directory.lookup(addr)
        if entry is None:
            raise CoherenceError(
                f"private hit on {addr:#x} with no directory entry"
            )
        if entry.owner == core:
            return 0
        extra = 0
        others = entry.sharers & ~(1 << core)
        if others:
            victims, _dirty = self._invalidate_sharers(others, addr)
            self.stats.coherence_invalidations += victims
            entry.sharers = 1 << core
            extra = self.config.core.coherence_forward_latency
        entry.owner = core
        return extra

    def _coherence_on_miss(
        self, core: int, addr: int, entry, ctx: AccessContext
    ) -> int:
        """Coherence actions before serving a private miss from the LLC:
        downgrade a remote M copy on a read; invalidate all remote copies
        on a write.  Returns the extra latency."""
        extra = 0
        if ctx.is_write:
            others = entry.sharers & ~(1 << core)
            if others:
                victims, _dirty = self._invalidate_sharers(others, addr)
                self.stats.coherence_invalidations += victims
                entry.sharers &= 1 << core
                entry.owner = -1
                extra = self.config.core.coherence_forward_latency
        elif entry.owner >= 0 and entry.owner != core:
            dirty = self.private[entry.owner].downgrade(addr)
            entry.owner = -1
            if dirty:
                self._merge_dirty_data(addr)
            extra = self.config.core.coherence_forward_latency
        return extra

    def _invalidate_sharers(self, mask: int, addr: int) -> tuple[int, bool]:
        """Kill the private copies of ``addr`` in every core of ``mask``.
        Returns ``(victims, dirty)``: how many cores held a copy (each
        caller adds them to its own counter) and whether any was dirty."""
        victims = 0
        dirty = False
        core = 0
        while mask:
            if mask & 1:
                copies, was_dirty = self.private[core].invalidate(addr)
                if copies:
                    victims += 1
                dirty = dirty or was_dirty
            mask >>= 1
            core += 1
        return victims, dirty

    def _merge_dirty_data(self, addr: int) -> None:
        """Dirty data written back from a private cache: update the LLC
        copy if one exists (normal or relocated), else write to memory."""
        bank, set_idx, way = self.llc.location(addr)
        if way >= 0:
            self.llc.block(bank, set_idx, way).dirty = True
            return
        entry = self.directory.lookup(addr)
        if entry is not None and entry.relocated:
            self.llc.block(
                entry.reloc_bank, entry.reloc_set, entry.reloc_way
            ).dirty = True
            return
        self.writeback_to_memory(addr, None)

    # ---------------------------------------------------------- notices

    def _process_notices(
        self, core: int, notices: list[PrivateEviction], ctx: AccessContext
    ) -> None:
        for ev in notices:
            self._handle_eviction_notice(core, ev, ctx)

    def _handle_eviction_notice(
        self, core: int, ev: PrivateEviction, ctx: AccessContext
    ) -> None:
        """A block left ``core``'s private hierarchy: notify the home bank
        (paper III-A keeps the sparse directory exactly up to date)."""
        self.stats.eviction_notices += 1
        bank = self.llc.bank_of(ev.addr)
        group = None
        dead_hint = False
        if self.char is not None:
            group, dead_hint = self.char.on_l2_eviction(core, ev)
            self.char.on_notice(bank, core)
        entry = self.directory.lookup(ev.addr)
        if entry is None:
            raise CoherenceError(
                f"eviction notice for untracked block {ev.addr:#x}"
            )
        entry.remove_sharer(core)
        if entry.sharers:
            # Copies remain elsewhere; a dirty eviction cannot occur here
            # under MESI (an M copy is sole), so nothing more to do.
            return
        if entry.relocated:
            self._kill_relocated_block(entry, ev.dirty, ctx)
            self.directory.free(ev.addr)
            return
        self.directory.free(ev.addr)
        b, s, way = self.llc.location(ev.addr)
        if way >= 0:
            blk = self.llc.block(b, s, way)
            blk.not_in_prc = True
            if ev.dirty:
                blk.dirty = True
                self.stats.llc_writebacks_in += 1
            if dead_hint:
                blk.likely_dead = True
            if group is not None:
                blk.char_tag = (core, group)
            self.scheme.after_set_update(b, s)
        elif ev.dirty:
            # Non-inclusive LLC without a copy: the writeback goes to
            # memory.
            self.writeback_to_memory(ev.addr, ctx)

    def _kill_relocated_block(self, entry, notice_dirty: bool,
                              ctx: AccessContext) -> None:
        """Last private copy of a relocated block gone: the relocated LLC
        block is invalidated, ending its life (paper III-C2)."""
        b, s, w = entry.reloc_bank, entry.reloc_set, entry.reloc_way
        blk = self.llc.block(b, s, w)
        if not blk.relocated or blk.addr != entry.addr:
            raise CoherenceError(
                f"stale relocation pointer while killing {entry.addr:#x}"
            )
        dirty = blk.dirty or notice_dirty
        self.llc.banks[b].evict_way(s, w, ctx or AccessContext())
        if dirty:
            self.writeback_to_memory(entry.addr, ctx)
        self.scheme.after_set_update(b, s)

    # ------------------------------------------------------ directory events

    def _allocate_directory_entry(self, addr: int, ctx: AccessContext):
        entry, displaced = self.directory.allocate(addr)
        if displaced is not None:
            self._handle_displaced_entry(displaced, ctx)
        return entry

    def _handle_displaced_entry(self, displaced, ctx: AccessContext) -> None:
        """A sparse-directory entry was evicted for capacity (MESI mode):
        back-invalidate the tracked block's private copies, and invalidate
        its relocated LLC copy if it has one (paper III-F)."""
        self.stats.directory_evictions += 1
        self.stats.back_invalidations_dir += 1
        addr = displaced.addr
        victims, dirty_any = self._invalidate_sharers(displaced.sharers, addr)
        self.stats.inclusion_victims_dir += victims
        if self.telemetry is not None:
            self.telemetry.emit(
                "directory_eviction",
                addr=addr,
                sharers=displaced.sharers,
                victims=victims,
                relocated=displaced.relocated,
            )
        if displaced.relocated:
            b, s, w = (
                displaced.reloc_bank,
                displaced.reloc_set,
                displaced.reloc_way,
            )
            blk = self.llc.block(b, s, w)
            dirty = blk.dirty or dirty_any
            self.llc.banks[b].evict_way(s, w, ctx)
            if dirty:
                self.writeback_to_memory(addr, ctx)
            self.scheme.after_set_update(b, s)
            return
        b, s, way = self.llc.location(addr)
        if way >= 0:
            blk = self.llc.block(b, s, way)
            blk.not_in_prc = True
            if dirty_any:
                blk.dirty = True
            self.scheme.after_set_update(b, s)
        elif dirty_any:
            self.writeback_to_memory(addr, ctx)

    # ------------------------------------------------------ scheme services

    def privately_cached(self, addr: int) -> bool:
        entry = self.directory.lookup(addr)
        return entry is not None and entry.sharers != 0

    def sharer_mask(self, addr: int) -> int:
        entry = self.directory.lookup(addr)
        return entry.sharers if entry is not None else 0

    def back_invalidate(self, addr: int) -> None:
        """Forcefully invalidate every private copy of ``addr`` and free
        its directory entry -- the inclusion-victim generator.  If a dirty
        private copy existed, the LLC copy (which the caller is about to
        evict) is marked dirty so the data reaches memory."""
        entry = self.directory.lookup(addr)
        if entry is None or entry.sharers == 0:
            return
        self.stats.back_invalidations_llc += 1
        victims, dirty = self._invalidate_sharers(entry.sharers, addr)
        self.stats.inclusion_victims_llc += victims
        if self.telemetry is not None:
            self.telemetry.emit(
                "back_invalidation",
                addr=addr,
                trigger="llc",
                sharers=entry.sharers,
                victims=victims,
            )
        self.directory.free(addr)
        if dirty:
            b, s, way = self.llc.location(addr)
            if way >= 0:
                self.llc.block(b, s, way).dirty = True
            else:
                self.writeback_to_memory(addr, None)

    def writeback_to_memory(self, addr: int, ctx) -> None:
        cycle = ctx.cycle if ctx is not None else 0
        self.dram.write_back(addr, cycle)
        self.stats.dram_writes += 1
        self.stats.llc_writebacks_out += 1
        self.energy.dram_accesses += 1

    def _char_recall(self, core: int, blk) -> None:
        """CHAR recall detection: the same core pulls back a block it had
        evicted from its L2 (paper III-D6)."""
        if blk.char_tag is not None:
            if self.char is not None and blk.char_tag[0] == core:
                self.char.on_recall(core, blk.char_tag[1])
            blk.char_tag = None

    # ------------------------------------------------------------ diagnostics

    def inclusion_holds(self) -> bool:
        """Every privately cached block is present in the LLC (normal or
        relocated).  Must hold for every inclusive scheme.  Delegates to
        the invariant auditor's first-principles check."""
        from repro.sim.audit import check_inclusion

        return not check_inclusion(self)

    def directory_consistent(self) -> bool:
        """The directory tracks exactly the privately cached blocks, and
        every relocation tuple is coherent both ways (auditor checks)."""
        from repro.sim.audit import check_conservation, check_directory

        return not (check_conservation(self) or check_directory(self))

    def audit_violations(self) -> list:
        """One full invariant-audit sweep over the current state; returns
        the structured violations (see :mod:`repro.sim.audit`)."""
        from repro.sim.audit import audit_hierarchy

        return audit_hierarchy(self)

    def finalize_stats(self) -> None:
        """Copy late-bound counters into the stats object."""
        self.stats.directory_spills = self.directory.spill_count
        scheme_stats = self.scheme.on_stats()
        pv_flips = scheme_stats.get("pv_flips")
        if pv_flips is not None:
            self.energy.pv_updates = pv_flips
