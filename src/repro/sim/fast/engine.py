"""Array-state fast simulation engine.

A second implementation of the CMP hierarchy that produces *bit-identical*
statistics to :class:`repro.hierarchy.cmp.CacheHierarchy` (the reference
oracle) while representing all simulator state as flat Python lists of
integers instead of per-block objects:

* **LLC** -- one tag list indexed by ``pos = (bank * sets_per_bank + set)
  * ways + way`` with ``-1`` marking an invalid way, one packed metadata
  list (bit 0 = dirty, bit 1 = relocated, bit 2 = NotInPrC, bit 3 = NRU,
  bits 4+ = RRPV) and one LRU-stamp list, plus a single address -> pos
  dict covering home and relocated copies (the two never coexist for one
  address, and the relocated bit disambiguates a relocated block that
  happens to sit in its home set).
* **Private L1/L2** -- the same tag/dirty/stamp layout per cache with a
  per-cache monotone LRU clock, mirroring the per-policy clock of the
  object engine.
* **Sparse directory** -- flat address/sharers/owner/NRU lists plus a
  packed relocation pointer (the LLC ``pos`` of the relocated copy, -1
  when none).  ZeroDEV spill entries live in the *same* arrays, in slots
  appended past the fixed slice storage and recycled through a free list.
* **Property vectors** -- the real :class:`PropertyVector` objects (whose
  packed-integer bits and Algorithm 1 nextRS are already array-state).
  ZIV hierarchies keep two counts per LLC set, updated wherever a
  block's NotInPrC bit, RRPV or validity changes: valid NotInPrC blocks
  (``llc_nip``) and those at the maximum RRPV (``llc_nipmax``).  A
  refresh reads the ``invalid``, ``notinprc`` and ``maxrrpvnotinprc``
  bits from the counts in O(1), the way the paper's hardware flips a PV
  bit only when a block changes state (III-D1); only ``lrunotinprc``
  scans the set for its LRU block.

Every statement of the object engine's access flow is ported in order:
counter increments, NRU touches, DRAM request ordering, PV refreshes and
telemetry events happen at exactly the oracle's sequence points, so
``SimStats``/``CoreStats``/energy/audit/telemetry outputs are equal, not
merely statistically close.  ``repro.sim.differential`` asserts this on
every supported scheme x policy x workload combination.  The access
flow itself lives in one method, :meth:`FastHierarchy.run_segment`,
which holds the only copy of every fill step; helper methods cover the
front of a relocated hit, coherence actions, directory displacement and
the ZIV relocation path.

The supported envelope is the paper's core grid -- inclusive,
non-inclusive and the object-property ZIV variants over LRU/SRRIP/NRU --
and :func:`supports` reports whether a configuration falls inside it;
anything else (Hawkeye/Belady policies, CHAR-assisted schemes, QBS/SHARP,
prefetching) stays on the object engine.
"""

from __future__ import annotations

from typing import Optional

from repro.core.properties import PROPERTY_LADDERS
from repro.core.property_vector import PropertyVector
from repro.core.relocation import RelocationTracker
from repro.energy.model import EnergyModel
from repro.hierarchy.cmp import CoherenceError
from repro.hierarchy.interconnect import make_interconnect
from repro.coherence.sparse_directory import DirectoryProtocolError
from repro.core.ziv import ZIVInvariantError
from repro.params import (
    FAST_POLICIES as SUPPORTED_POLICIES,
    FAST_SCHEMES as SUPPORTED_SCHEMES,
    SystemConfig,
    fast_supports as supports,
)
from repro.sim.stats import SimStats


class UnsupportedConfigError(ValueError):
    """The fast engine does not model this configuration; the caller
    should fall back to the object engine (or fix the request)."""


#: RRPV width shared by every supported policy (ReplacementPolicy.max_rrpv).
_MAX_RRPV = 7


class _FlatCache:
    """One private cache level as flat arrays (direct set indexing)."""

    __slots__ = ("set_mask", "ways", "tag", "dirty", "stamp", "map",
                 "clock", "vcount")

    def __init__(self, sets: int, ways: int) -> None:
        self.set_mask = sets - 1
        self.ways = ways
        n = sets * ways
        self.tag = [-1] * n
        self.dirty = [False] * n
        self.stamp = [0] * n
        self.map: dict[int, int] = {}  # addr -> pos
        self.clock = 0
        self.vcount = [0] * sets


class FastHierarchy:
    """The :class:`CacheHierarchy` counterpart over flat arrays.

    It runs only under :class:`repro.sim.engine.Simulation`: there is no
    per-access ``access()`` call, every access of either scheduling mode
    goes through the segment kernel :meth:`run_segment`.  The real
    audit/telemetry layers see it through thin views
    (:mod:`repro.sim.fast.views`); statistics objects
    (:class:`SimStats`, :class:`EnergyModel`, :class:`PropertyVector`,
    :class:`RelocationTracker`) are shared with the object engine
    verbatim so results compare field-for-field.
    """

    #: Which engine produced a result (ledger provenance).
    engine_name = "fast"

    def __init__(
        self,
        config: SystemConfig,
        scheme_name: str,
        llc_policy: str = "lru",
        scheme_kwargs: Optional[dict] = None,
        policy_kwargs: Optional[dict] = None,
    ) -> None:
        if not supports(config, scheme_name, llc_policy,
                        scheme_kwargs, policy_kwargs):
            raise UnsupportedConfigError(
                f"fast engine does not support scheme={scheme_name!r} "
                f"policy={llc_policy!r} scheme_kwargs={scheme_kwargs!r} "
                f"policy_kwargs={policy_kwargs!r} "
                f"prefetch={config.prefetch.kind!r}; supported schemes: "
                f"{sorted(SUPPORTED_SCHEMES)}, policies: "
                f"{sorted(SUPPORTED_POLICIES)}, no prefetching"
            )
        self.config = config
        self.scheme_name = scheme_name
        self.policy_name = llc_policy
        self.stats = SimStats.for_cores(config.cores)
        self._core_stats = self.stats.cores
        self._ziv = scheme_name.startswith("ziv")
        self.inclusive = scheme_name != "noninclusive"
        self.energy = EnergyModel(ziv_mode=self._ziv)
        self.char = None  # the supported envelope never runs CHAR
        self.telemetry = None  # bound by TelemetryCollector.bind()

        # -- LLC arrays ----------------------------------------------------
        llc = config.llc
        self.llc_banks = llc.banks
        self.llc_spb = llc.sets_per_bank
        self.llc_ways = llc.ways
        self.llc_bank_mask = llc.banks - 1
        self.llc_bank_bits = (llc.banks - 1).bit_length()
        self.llc_set_mask = llc.sets_per_bank - 1
        self.bank_size = llc.sets_per_bank * llc.ways
        n = llc.banks * self.bank_size
        self.llc_tag = [-1] * n
        self.llc_meta = [0] * n
        self.llc_stamp = [0] * n
        self.llc_map: dict[int, int] = {}  # addr -> pos (home or relocated)
        self.llc_clock = [0] * llc.banks  # per-bank monotone LRU clock
        self.llc_vcount = [0] * (llc.banks * llc.sets_per_bank)

        # -- private caches ------------------------------------------------
        self._l1s = [
            _FlatCache(config.l1.sets, config.l1.ways)
            for _ in range(config.cores)
        ]
        self._l2s = [
            _FlatCache(config.l2.sets, config.l2.ways)
            for _ in range(config.cores)
        ]

        # -- sparse directory ----------------------------------------------
        dg = config.directory
        self.d_sets = dg.sets
        self.d_ways = dg.ways
        self._dir_set_bits = (dg.sets - 1).bit_length()
        self._dir_set_mask = dg.sets - 1
        self.d_slice_size = llc.banks * dg.sets * dg.ways
        size = self.d_slice_size
        self.d_addr = [-1] * size
        self.d_sharers = [0] * size
        self.d_owner = [-1] * size
        self.d_nru = [False] * size
        self.d_reloc = [-1] * size  # packed LLC pos of the relocated copy
        self.d_vcount = [0] * (llc.banks * dg.sets)  # valid per slice set
        self.d_map: dict[int, int] = {}  # addr -> pos (slices and spill)
        self.d_spill_addrs: dict[int, int] = {}  # insertion-ordered
        self.d_spill_free: list[int] = []
        self.spill_count = 0
        self._zerodev = config.directory_mode == "zerodev"

        # -- DRAM (inlined event-cost model) -------------------------------
        dp = config.dram
        self._dram_ch_mask = dp.channels - 1
        self._dram_ch_shift = (dp.channels - 1).bit_length()
        self._dram_bpc = dp.banks_per_channel
        self._dram_bank_mask = dp.banks_per_channel - 1
        self._dram_bank_shift = (dp.banks_per_channel - 1).bit_length()
        self._dram_row_bits = dp.row_bits
        self._dram_hit = dp.row_hit_latency
        self._dram_miss = dp.row_miss_latency
        self._dram_conflict = dp.row_conflict_latency
        self._dram_busy = dp.bank_busy
        ngb = dp.channels * dp.banks_per_channel
        self._dram_open = [-1] * ngb
        self._dram_ready = [0] * ngb

        # -- latencies -----------------------------------------------------
        self.interconnect = make_interconnect(
            config.core, config.cores, llc.banks
        )
        self._l1_lat = config.l1.latency
        self._l12_lat = config.l1.latency + config.l2.latency
        self._data_lat = llc.data_latency
        self._fwd_lat = config.core.coherence_forward_latency
        self._reloc_penalty = config.core.relocated_access_penalty
        self._base_lat = [
            self._l12_lat
            + 2 * self.interconnect.latency(core, bank)
            + llc.tag_latency
            for core in range(config.cores)
            for bank in range(llc.banks)
        ]
        # Everything _decode reads: the memo key of in-memory decodes.
        self._decode_key = (
            config.core.base_cpi, self.llc_bank_mask, self.llc_bank_bits,
            self.llc_set_mask, self.llc_spb, self.llc_ways, self.d_sets,
            self.d_ways, self._dir_set_bits, self._dir_set_mask,
            config.l1.sets, config.l1.ways, config.l2.sets, config.l2.ways,
            self._dram_ch_mask, self._dram_ch_shift, self._dram_bpc,
            self._dram_bank_mask, self._dram_bank_shift, self._dram_row_bits,
            tuple(self._base_lat),
        )

        self._bind_policy_ports()

        # -- scheme state --------------------------------------------------
        if self._ziv:
            prop = scheme_name.split(":", 1)[1]
            self._property_name = prop
            self._ladder = PROPERTY_LADDERS[prop]
            self._pvs = [
                {
                    p: PropertyVector(self.llc_spb, name=f"{p}[{b}]")
                    for p in self._ladder
                }
                for b in range(self.llc_banks)
            ]
            self._fast_pvs = [
                tuple(
                    bank_pvs.get(p)
                    for p in ("invalid", "notinprc", "lrunotinprc",
                              "maxrrpvnotinprc")
                )
                for bank_pvs in self._pvs
            ]
            self._ladder_pvs = [
                tuple((p, bank_pvs[p]) for p in self._ladder)
                for bank_pvs in self._pvs
            ]
            self._reloc_rule_maxrrpv = prop == "maxrrpvnotinprc"
            self._reloc = RelocationTracker(
                self.llc_banks,
                fifo_depth=config.relocation_fifo_depth,
                nextrs_latency=config.nextrs_latency,
            )
            # Per LLC set: valid NotInPrC blocks, and those of them at
            # the maximum RRPV (the PV bits' inputs, see _refresh).
            self.llc_nip = [0] * len(self.llc_vcount)
            self.llc_nipmax = [0] * len(self.llc_vcount)
            # PropertyTracker.__init__ refreshes every set up front (the
            # all-invalid LLC flips every "invalid" PV bit on); replicate
            # so pv_flips and energy.pv_updates match.
            for sid in range(self.llc_banks * self.llc_spb):
                self._refresh(sid)
        else:
            self._property_name = None
            self._ladder = ()
            self._pvs = None
            self._reloc = None
            self.llc_nip = self.llc_nipmax = None

        # -- audit/telemetry views ----------------------------------------
        from repro.sim.fast.views import (
            FastDirectoryView,
            FastLLCView,
            FastPrivateView,
            FastSchemeView,
        )

        self.llc = FastLLCView(self)
        self.directory = FastDirectoryView(self)
        self.private = [
            FastPrivateView(self, core) for core in range(config.cores)
        ]
        self.scheme = FastSchemeView(self)

    # -------------------------------------------------------------- LLC path

    def _relocated_hit(
        self, core: int, addr: int, dpos: int, is_write: bool,
        cycle: int, lat: int,
    ) -> int:
        """Front part of a hit on a relocated block (paper III-C1): the
        directory entry ``dpos`` points at it.  Coherence, touch and
        counters; the kernel's L2-miss tail does the rest.  Returns the
        access latency."""
        rp = self.d_reloc[dpos]
        if not (self.llc_meta[rp] & 2) or self.llc_tag[rp] != addr:
            raise CoherenceError(
                f"directory relocation pointer for {addr:#x} is stale"
            )
        extra = self._coherence_on_miss(core, addr, dpos, is_write, cycle)
        self._llc_touch(rp)
        self._refresh(rp // self.llc_ways)
        stats = self.stats
        stats.llc_hits += 1
        stats.relocated_hits += 1
        self.energy.llc_data_reads += 1
        return lat + self._data_lat + self._reloc_penalty + extra

    # ------------------------------------------------------------- coherence

    def _write_upgrade(self, core: int, addr: int) -> int:
        dpos = self._dir_lookup(addr)
        if dpos < 0:
            raise CoherenceError(
                f"private hit on {addr:#x} with no directory entry"
            )
        if self.d_owner[dpos] == core:
            return 0
        extra = 0
        bit = 1 << core
        others = self.d_sharers[dpos] & ~bit
        if others:
            victims, _dirty = self._invalidate_sharers(others, addr)
            self.stats.coherence_invalidations += victims
            self.d_sharers[dpos] = bit
            extra = self._fwd_lat
        self.d_owner[dpos] = core
        return extra

    def _coherence_on_miss(
        self, core: int, addr: int, dpos: int, is_write: bool, cycle: int
    ) -> int:
        extra = 0
        if is_write:
            others = self.d_sharers[dpos] & ~(1 << core)
            if others:
                victims, _dirty = self._invalidate_sharers(others, addr)
                self.stats.coherence_invalidations += victims
                self.d_sharers[dpos] &= 1 << core
                self.d_owner[dpos] = -1
                extra = self._fwd_lat
        else:
            owner = self.d_owner[dpos]
            if owner >= 0 and owner != core:
                dirty = self._downgrade(owner, addr)
                self.d_owner[dpos] = -1
                if dirty:
                    self._merge_dirty(addr)
                extra = self._fwd_lat
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
                held = False
                for cache in (self._l1s[core], self._l2s[core]):
                    pos = cache.map.pop(addr, -1)
                    if pos >= 0:
                        cache.tag[pos] = -1
                        cache.vcount[pos // cache.ways] -= 1
                        held = True
                        dirty = dirty or cache.dirty[pos]
                victims += held
            mask >>= 1
            core += 1
        return victims, dirty

    def _downgrade(self, core: int, addr: int) -> bool:
        dirty = False
        for cache in (self._l1s[core], self._l2s[core]):
            pos = cache.map.get(addr, -1)
            if pos >= 0:
                dirty = dirty or cache.dirty[pos]
                cache.dirty[pos] = False
        return dirty

    def _merge_dirty(self, addr: int) -> None:
        """Dirty data written back from a private cache: update the LLC
        copy if one exists (normal or relocated), else write to memory.
        The oracle passes no context here, so the writeback posts at
        cycle 0 -- replicated for DRAM-state equality."""
        hp = self.llc_map.get(addr, -1)
        if hp >= 0 and not (self.llc_meta[hp] & 2):
            self.llc_meta[hp] |= 1
            return
        dpos = self._dir_lookup(addr)
        if dpos >= 0 and self.d_reloc[dpos] >= 0:
            self.llc_meta[self.d_reloc[dpos]] |= 1
            return
        self._writeback(addr, 0)

    # ------------------------------------------------------- LLC invalidation

    def _kill_relocated(
        self, rp: int, addr: int, notice_dirty: bool, cycle: int
    ) -> None:
        """The last private copy of a relocated block is gone: the
        block at ``rp`` dies (paper III-C2).  Only ZIV relocates."""
        m = self.llc_meta[rp]
        if not (m & 2) or self.llc_tag[rp] != addr:
            raise CoherenceError(
                f"stale relocation pointer while killing {addr:#x}"
            )
        dirty = bool(m & 1) or notice_dirty
        del self.llc_map[addr]
        self.llc_tag[rp] = -1
        sid = rp // self.llc_ways
        self.llc_vcount[sid] -= 1
        self._uncount(sid, m)
        if dirty:
            self._writeback(addr, cycle)
        self._refresh(sid)

    def _uncount(self, sid: int, m: int) -> None:
        """A ZIV block with metadata ``m`` leaves set ``sid``: drop it
        from the set's NotInPrC counts."""
        if m & 4:
            self.llc_nip[sid] -= 1
            if m >> 4 >= _MAX_RRPV:
                self.llc_nipmax[sid] -= 1

    # ------------------------------------------------------ directory storage

    def _dir_lookup(self, addr: int) -> int:
        """Position of the tracking entry (slice or spill), -1 if absent.
        Slice hits set the NRU bit, exactly like the object lookup; spill
        hits do not (spill entries never re-enter a slice set)."""
        pos = self.d_map.get(addr, -1)
        if 0 <= pos < self.d_slice_size:
            self.d_nru[pos] = True
        return pos

    def _dir_set_index(self, addr: int) -> int:
        """XOR-folded slice-set index (DirectoryGeometry.set_index)."""
        a = addr >> self.llc_bank_bits
        bits = self._dir_set_bits
        if bits == 0:
            return 0
        idx = 0
        while a:
            idx ^= a
            a >>= bits
        return idx & self._dir_set_mask

    def _spill(self, displaced: tuple[int, int, int, int]) -> None:
        """ZeroDEV: the displaced entry moves to the spill region (slots
        past the slice storage, recycled through a free list)."""
        daddr, sharers, owner, reloc = displaced
        if self.d_spill_free:
            spos = self.d_spill_free.pop()
        else:
            spos = len(self.d_addr)
            self.d_addr.append(-1)
            self.d_sharers.append(0)
            self.d_owner.append(-1)
            self.d_nru.append(False)
            self.d_reloc.append(-1)
        self.d_addr[spos] = daddr
        self.d_sharers[spos] = sharers
        self.d_owner[spos] = owner
        self.d_nru[spos] = False
        self.d_reloc[spos] = reloc
        self.d_map[daddr] = spos
        self.d_spill_addrs[daddr] = spos
        self.spill_count += 1

    def _dir_free(self, addr: int) -> None:
        pos = self.d_map.pop(addr, -1)
        if pos < 0:
            raise DirectoryProtocolError(
                f"free of untracked block {addr:#x} -- double free, or the "
                f"block was never allocated"
            )
        if pos >= self.d_slice_size:
            del self.d_spill_addrs[addr]
            self.d_spill_free.append(pos)
        else:
            self.d_vcount[pos // self.d_ways] -= 1
        self.d_addr[pos] = -1
        self.d_sharers[pos] = 0
        self.d_owner[pos] = -1
        self.d_nru[pos] = False
        self.d_reloc[pos] = -1

    def _handle_displaced(
        self, displaced: tuple[int, int, int, int], cycle: int
    ) -> None:
        """MESI-mode directory eviction: back-invalidate the private
        copies and kill the relocated LLC copy, if any (paper III-F)."""
        daddr, sharers, _owner, reloc = displaced
        stats = self.stats
        stats.directory_evictions += 1
        stats.back_invalidations_dir += 1
        victims, dirty = self._invalidate_sharers(sharers, daddr)
        stats.inclusion_victims_dir += victims
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "directory_eviction",
                addr=daddr,
                sharers=sharers,
                victims=victims,
                relocated=reloc >= 0,
            )
        if reloc >= 0:
            self._kill_relocated(reloc, daddr, dirty, cycle)
            return
        hp = self.llc_map.get(daddr, -1)
        if hp >= 0 and not (self.llc_meta[hp] & 2):
            m = self.llc_meta[hp]
            self.llc_meta[hp] = m | 5 if dirty else m | 4
            if self._ziv:
                sid = hp // self.llc_ways
                if not (m & 4):
                    self.llc_nip[sid] += 1
                    if m >> 4 >= _MAX_RRPV:
                        self.llc_nipmax[sid] += 1
                self._refresh(sid)
        elif dirty:
            self._writeback(daddr, cycle)

    def _back_invalidate(self, addr: int, dpos: int) -> None:
        """Inclusive-baseline LLC eviction of a block whose directory
        entry ``dpos`` has sharers: invalidate every private copy and
        free the entry.  The trailing dirty writeback posts at cycle 0
        (the oracle passes no context)."""
        stats = self.stats
        stats.back_invalidations_llc += 1
        sharers = self.d_sharers[dpos]
        victims, dirty = self._invalidate_sharers(sharers, addr)
        stats.inclusion_victims_llc += victims
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                "back_invalidation",
                addr=addr,
                trigger="llc",
                sharers=sharers,
                victims=victims,
            )
        self._dir_free(addr)
        if dirty:
            hp = self.llc_map.get(addr, -1)
            if hp >= 0 and not (self.llc_meta[hp] & 2):
                self.llc_meta[hp] |= 1
            else:
                self._writeback(addr, 0)

    # ------------------------------------------------------------ LLC storage

    def _evict_llc(self, pos: int, cycle: int) -> None:
        """Evict the valid block at ``pos`` of a ZIV LLC; dirty data goes
        to memory.  (The kernel evicts baseline victims inline.)"""
        m = self.llc_meta[pos]
        addr = self.llc_tag[pos]
        del self.llc_map[addr]
        self.llc_tag[pos] = -1
        sid = pos // self.llc_ways
        self.llc_vcount[sid] -= 1
        self._uncount(sid, m)
        if m & 1:
            self._writeback(addr, cycle)

    def _install_home(self, pos: int, sid: int, addr: int) -> None:
        """Fill ``addr`` into the invalid way at ``pos`` (home set)."""
        self.llc_tag[pos] = addr
        self.llc_meta[pos] = 0
        self.llc_stamp[pos] = 0
        self.llc_map[addr] = pos
        self.llc_vcount[sid] += 1
        self._llc_fill(pos)

    # -- replacement-policy array ports (bound at init and on unpickle) ----

    def _bind_policy_ports(self) -> None:
        if self.policy_name == "lru":
            self._llc_fill = self._llc_touch = self._touch_pos_lru
            self._victim = None  # the kernel finds the LRU way inline
        elif self.policy_name == "srrip":
            self._llc_fill = self._fill_pos_srrip
            self._llc_touch = self._touch_pos_srrip
            self._victim = self._victim_srrip
        else:  # nru
            self._llc_fill = self._llc_touch = self._touch_pos_nru
            self._victim = self._victim_nru

    def __getstate__(self) -> dict:
        # A checkpoint holds state, not the bound ports: it names no
        # method, so renaming one leaves saved checkpoints loadable.
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_llc_fill", "_llc_touch", "_victim")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_policy_ports()

    def _touch_pos_lru(self, pos: int) -> None:
        bank = pos // self.bank_size
        self.llc_clock[bank] += 1
        self.llc_stamp[pos] = self.llc_clock[bank]

    def _fill_pos_srrip(self, pos: int) -> None:
        # insertion RRPV = max_rrpv - 1 (the RRPV bits are clear on entry)
        self.llc_meta[pos] |= (_MAX_RRPV - 1) << 4

    def _touch_pos_srrip(self, pos: int) -> None:
        # RRPV -> 0.  Only ZIV's relocated hits touch through this port,
        # and a relocated block is never NotInPrC, so no count moves.
        self.llc_meta[pos] &= 0xF

    def _victim_srrip(self, base: int) -> int:
        metas = self.llc_meta
        end = base + self.llc_ways
        current_max = 0
        for p in range(base, end):
            r = metas[p] >> 4
            if r > current_max:
                current_max = r
        delta = _MAX_RRPV - current_max
        if delta > 0:
            inc = delta << 4
            for p in range(base, end):
                metas[p] += inc
            if self._ziv:
                # No block was at the maximum before aging; now every
                # block that held the set's highest RRPV is.
                tags = self.llc_tag
                self.llc_nipmax[base // self.llc_ways] = sum(
                    1 for p in range(base, end)
                    if tags[p] >= 0 and metas[p] & 4
                    and metas[p] >> 4 >= _MAX_RRPV
                )
        for p in range(base, end):
            if (metas[p] >> 4) >= _MAX_RRPV:
                return p
        raise AssertionError("aging must expose a max-RRPV block")

    def _touch_pos_nru(self, pos: int) -> None:
        self.llc_meta[pos] |= 8

    def _victim_nru(self, base: int) -> int:
        metas = self.llc_meta
        end = base + self.llc_ways
        all_set = True
        for p in range(base, end):
            if not (metas[p] & 8):
                all_set = False
                break
        if all_set:
            for p in range(base, end):
                metas[p] &= ~8
        for p in range(base, end):
            if not (metas[p] & 8):
                return p
        return base

    # ------------------------------------------------------------ relocation

    def _privately_cached(self, addr: int) -> bool:
        dpos = self._dir_lookup(addr)
        return dpos >= 0 and self.d_sharers[dpos] != 0

    def _relocation_path(
        self, bank: int, sid: int, vpos: int, addr: int, cycle: int
    ) -> None:
        """The baseline victim is privately cached: walk the property
        ladder (original set first, then the global nextRS, per level)."""
        set_idx = sid - bank * self.llc_spb
        # Victim selection may have aged replacement state (SRRIP), so
        # make sure the original set's property bits are current.
        self._refresh(sid)
        stats = self.stats
        tags = self.llc_tag
        for level, pv in self._ladder_pvs[bank]:
            if (pv.bits >> set_idx) & 1:
                wp = self._select_reloc_victim(sid)
                if wp >= 0:
                    wt = tags[wp]
                    if wt >= 0 and self._privately_cached(wt):
                        raise ZIVInvariantError(
                            f"relocation-set victim {wt:#x} is privately "
                            f"cached"
                        )
                    stats.relocation_same_set += 1
                    stats.count_property_hit(f"local:{level}")
                    if wt >= 0:
                        self._evict_llc(wp, cycle)
                    self._install_home(wp, sid, addr)
                    self._refresh(sid)
                    return
            rs = pv.next_relocation_set()
            if rs >= 0:
                stats.count_property_hit(f"global:{level}")
                self._relocate(bank, sid, vpos, bank, rs, cycle, level, False)
                self._install_home(vpos, sid, addr)
                self._refresh(sid)
                return
        # Every PV of this bank is empty: cross-bank fallback (III-D1),
        # one-hop neighbours first, then the remaining banks.
        banks = self.llc_banks
        order: list[int] = []
        if banks > 1:
            order = [(bank + 1) % banks, (bank - 1) % banks]
            order += [b for b in range(banks) if b != bank and b not in order]
        for b in order:
            for level, pv in self._ladder_pvs[b]:
                rs = pv.next_relocation_set()
                if rs >= 0:
                    stats.relocations_cross_bank += 1
                    self._relocate(bank, sid, vpos, b, rs, cycle, level, True)
                    self._install_home(vpos, sid, addr)
                    self._refresh(sid)
                    return
        raise ZIVInvariantError(
            "no relocation set exists in any bank; aggregate private "
            "capacity must exceed the LLC capacity"
        )

    def _select_reloc_victim(self, sid: int) -> int:
        """Relocation-set victim: invalid way first, then the scheme
        property's rule (paper III-E).  -1 if none qualifies."""
        base = sid * self.llc_ways
        tags = self.llc_tag
        if self.llc_vcount[sid] < self.llc_ways:
            pos = base
            while tags[pos] >= 0:
                pos += 1
            return pos
        metas = self.llc_meta
        end = base + self.llc_ways
        if self._reloc_rule_maxrrpv:
            best = -1
            best_rrpv = -1
            for p in range(base, end):
                m = metas[p]
                if m & 4:
                    r = m >> 4
                    if r > best_rrpv:
                        best = p
                        best_rrpv = r
            return best
        stamps = self.llc_stamp
        best = -1
        best_stamp = 0
        for p in range(base, end):
            if metas[p] & 4:
                sp = stamps[p]
                if best < 0 or sp < best_stamp:
                    best = p
                    best_stamp = sp
        return best

    def _relocate(
        self,
        src_bank: int,
        src_sid: int,
        src_pos: int,
        dst_bank: int,
        dst_set: int,
        cycle: int,
        level: str,
        cross_bank: bool,
    ) -> None:
        dst_sid = dst_bank * self.llc_spb + dst_set
        dst_pos = self._select_reloc_victim(dst_sid)
        if dst_pos < 0:
            raise ZIVInvariantError(
                f"relocation set {dst_set} of bank {dst_bank} has no "
                "evictable block despite its property bit"
            )
        tags = self.llc_tag
        dt = tags[dst_pos]
        if dt >= 0:
            if self._privately_cached(dt):
                raise ZIVInvariantError(
                    f"relocation-set victim {dt:#x} is privately cached"
                )
            self._evict_llc(dst_pos, cycle)
        maddr = tags[src_pos]
        mmeta = self.llc_meta[src_pos]
        was_relocated = bool(mmeta & 2)
        # extract (no policy eviction hook -- the block stays in the LLC)
        del self.llc_map[maddr]
        tags[src_pos] = -1
        self.llc_vcount[src_sid] -= 1
        self._uncount(src_sid, mmeta)
        # install relocated: keeps address and dirtiness, Relocated on,
        # replacement state initialised as a normal fill
        tags[dst_pos] = maddr
        self.llc_meta[dst_pos] = 2 | (mmeta & 1)
        self.llc_stamp[dst_pos] = 0
        self.llc_map[maddr] = dst_pos
        self.llc_vcount[dst_sid] += 1
        self._llc_fill(dst_pos)
        dpos = self._dir_lookup(maddr)
        if dpos < 0:
            raise ZIVInvariantError(
                f"relocating {maddr:#x} with no directory entry"
            )
        self.d_reloc[dpos] = dst_pos
        stats = self.stats
        stats.relocations += 1
        if was_relocated:
            stats.relocations_rechained += 1
        self.energy.record_relocation()
        self._reloc.record(src_bank, cycle)
        if self._reloc.fifo_peak > stats.relocation_fifo_peak:
            stats.relocation_fifo_peak = self._reloc.fifo_peak
        telemetry = self.telemetry
        if telemetry is not None:
            kind = (
                "cross_bank_fallback" if cross_bank
                else "re_relocation" if was_relocated
                else "relocation"
            )
            telemetry.emit(
                kind,
                addr=maddr,
                src=[src_bank, src_sid - src_bank * self.llc_spb,
                     src_pos - src_sid * self.llc_ways],
                dst=[dst_bank, dst_set, dst_pos - dst_sid * self.llc_ways],
                property=level,
                rechained=was_relocated,
                cross_bank=cross_bank,
            )
        self._refresh(src_sid)
        self._refresh(dst_sid)

    # ------------------------------------------------------- property vectors

    def _refresh(self, sid: int) -> None:
        """Bring every tracked property bit of one LLC set up to date.
        The ``invalid``, ``notinprc`` and ``maxrrpvnotinprc`` bits come
        from the set's counts in O(1); ``lrunotinprc`` scans for the
        set's LRU block, and only when the set holds a NotInPrC block.
        Every call site of the full rescan is kept, so ``set_bit``
        sees the same values at the same points and ``flips`` counts
        the same transitions."""
        bank = sid // self.llc_spb
        set_idx = sid - bank * self.llc_spb
        nip = self.llc_nip[sid]
        pv_invalid, pv_nip, pv_lru, pv_maxrrpv = self._fast_pvs[bank]
        if pv_invalid is not None:
            pv_invalid.set_bit(set_idx, self.llc_vcount[sid] < self.llc_ways)
        if pv_nip is not None:
            pv_nip.set_bit(set_idx, nip > 0)
        if pv_lru is not None:
            value = False
            if nip:
                tags = self.llc_tag
                stamps = self.llc_stamp
                lru_pos = -1
                lru_stamp = 0
                base = sid * self.llc_ways
                for p in range(base, base + self.llc_ways):
                    if tags[p] >= 0 and (
                        lru_pos < 0 or stamps[p] < lru_stamp
                    ):
                        lru_pos = p
                        lru_stamp = stamps[p]
                value = bool(self.llc_meta[lru_pos] & 4)
            pv_lru.set_bit(set_idx, value)
        if pv_maxrrpv is not None:
            pv_maxrrpv.set_bit(set_idx, self.llc_nipmax[sid] > 0)

    # ------------------------------------------------------------------- DRAM

    def _writeback(self, addr: int, cycle: int) -> None:
        """Dirty data to memory.  Only the DRAM bank state moves (same
        bank/row mapping and timing as DRAMModel.access): a writeback's
        latency is never charged to an access."""
        rest = addr >> self._dram_ch_shift
        gb = ((addr & self._dram_ch_mask) * self._dram_bpc
              + (rest & self._dram_bank_mask))
        self._dram_open[gb] = (
            (rest >> self._dram_bank_shift) >> self._dram_row_bits
        )
        ready = self._dram_ready
        ready[gb] = max(ready[gb], cycle) + self._dram_busy
        self.stats.dram_writes += 1
        self.stats.llc_writebacks_out += 1
        self.energy.dram_accesses += 1

    # ---------------------------------------------------- fused segment kernel

    def _decode(self, core: int, gaps, addrs, writes, infos: dict) -> list:
        """Kernel columns of one decode window: one ``(info, is_write,
        off)`` tuple per record, ``off`` being the record's issue delay.

        ``info`` packs every address-derived quantity the hot loop needs
        -- the address, base latency, home bank, LLC set id, directory
        slice-set id (the XOR fold), private set indices and bases and
        the DRAM bank/row split.  They are pure functions of the address
        and the geometry, so each distinct address of a core is worked
        out once per run (``infos`` memoises them) and its records share
        one tuple."""
        bank_mask = self.llc_bank_mask
        bank_bits = self.llc_bank_bits
        set_mask = self.llc_set_mask
        spb = self.llc_spb
        base_lat = self._base_lat
        core_base = core * self.llc_banks
        d_sets = self.d_sets
        l1 = self._l1s[core]
        l2 = self._l2s[core]
        dch_mask = self._dram_ch_mask
        dch_shift = self._dram_ch_shift
        dbk_shift = self._dram_bank_shift
        for a in dict.fromkeys(addrs):
            if a in infos:
                continue
            bank = a & bank_mask
            s2 = a & l2.set_mask
            s1 = a & l1.set_mask
            rest = a >> dch_shift
            infos[a] = (
                a,
                base_lat[core_base + bank],
                bank,
                bank * spb + ((a >> bank_bits) & set_mask),
                bank * d_sets + self._dir_set_index(a),
                s2,
                s2 * l2.ways,
                s1,
                s1 * l1.ways,
                (a & dch_mask) * self._dram_bpc
                + (rest & self._dram_bank_mask),
                (rest >> dbk_shift) >> self._dram_row_bits,
            )
        base_cpi = self.config.core.base_cpi
        offs = {g: int(g * base_cpi) for g in dict.fromkeys(gaps)}
        return list(zip(
            map(infos.__getitem__, addrs), writes, map(offs.__getitem__, gaps)
        ))

    def _window(
        self, trace, core: int, start: int, infos: dict
    ) -> tuple[list, list, int]:
        """``(columns, gaps, base)`` of the decode window holding record
        ``start``.  A streamed trace unpacks a bounded window at
        ``start`` straight from its file
        (:meth:`~repro.sim.tracebin.BinCoreTrace.window`); an in-memory
        trace decodes its columns whole, memoised on the trace keyed by
        the geometry (traces are immutable after construction)."""
        window = getattr(trace, "window", None)
        if window is not None:
            gaps, addrs, writes, _pcs = window(start)
            return self._decode(core, gaps, addrs, writes, infos), gaps, start
        memo = getattr(trace, "_fast_cols", None)
        if memo is None:
            memo = trace._fast_cols = {}
        cols = memo.get((self._decode_key, core))
        if cols is None:
            cols = memo[(self._decode_key, core)] = self._decode(
                core, trace.gaps, trace.addrs, trace.writes, infos
            )
        return cols, trace.gaps, 0

    def run_segment(self, cursor, stop: int) -> None:
        """Segment kernel: accesses ``cursor.pos`` up to ``stop``, in
        either scheduling mode (see :mod:`repro.sim.engine` for the
        driver).

        Exact port of the generic segment loop
        (``Simulation._run_segment``) + ``CacheHierarchy.access`` in one
        loop body, which holds the only copy of every fill step.  An L2
        miss runs the front part of its LLC outcome -- memory fill, home
        hit, relocated hit (:meth:`_relocated_hit`) or non-inclusive
        forward fill -- and then one shared tail, in the object engine's
        order: allocate a directory entry if none exists, add the sharer
        and the owner, fill the L2 and then the L1, and handle the
        eviction notices (the L2's, then the L1's).  An L2 hit refills
        the L1 through the same L1-fill and notice code.  Memory and
        forward fills share one LLC install block for all three
        schemes: inclusive back-invalidates a privately cached victim,
        non-inclusive just evicts it, and ZIV hands it to
        :meth:`_relocation_path`, installing inline otherwise.

        A timing-mode access issues at its core's ready cycle plus its
        gap and requeues at ``issue + latency``; a lock-step access
        issues at its global position and requeues at its core's trace
        index.  Either way the cursor's heap keeps the generic loop's
        format, so checkpoints of the two loops are interchangeable.
        Address-derived values come precomputed per record in decode
        windows (:meth:`_window`), and the hot counters are tracked as
        a handful of per-path tallies from which every stats/energy
        field is derived at the flush that ends each segment -- so the
        driver's boundary work (audit sweeps, telemetry samples,
        checkpoints) always sees exact counters.  The helper methods
        the kernel calls on rare paths (relocated hits, coherence
        actions, ZIV relocation, directory displacement) bump
        ``self.stats``/``self.energy`` directly; those increments
        commute with the flush.  Like the generic loop, the kernel
        stamps a bound telemetry collector with each access's index so
        events carry it.
        """
        from heapq import heappop, heappush

        n_cores = self.config.cores

        # -- local bindings ------------------------------------------------
        l1s = self._l1s
        l2s = self._l2s
        llc_map = self.llc_map
        llc_tag = self.llc_tag
        llc_meta = self.llc_meta
        llc_stamp = self.llc_stamp
        llc_vcount = self.llc_vcount
        llc_clock = self.llc_clock
        ways = self.llc_ways
        l1_lat = self._l1_lat
        l12_lat = self._l12_lat
        data_lat = self._data_lat
        d_map = self.d_map
        d_addr = self.d_addr
        d_sharers = self.d_sharers
        d_owner = self.d_owner
        d_nru = self.d_nru
        d_reloc = self.d_reloc
        d_slice = self.d_slice_size
        d_ways = self.d_ways
        d_vcount = self.d_vcount
        d_spill_addrs = self.d_spill_addrs
        d_spill_free = self.d_spill_free
        zerodev = self._zerodev
        ziv = self._ziv
        inclusive = self.inclusive
        llc_nip = self.llc_nip
        llc_nipmax = self.llc_nipmax
        refresh = self._refresh
        victim = self._victim
        pol = self.policy_name
        pol_lru = pol == "lru"
        pol_srrip = pol == "srrip"
        fwd_lat = self._fwd_lat
        dch_mask = self._dram_ch_mask
        dch_shift = self._dram_ch_shift
        dbpc = self._dram_bpc
        dbk_mask = self._dram_bank_mask
        dbk_shift = self._dram_bank_shift
        drow_bits = self._dram_row_bits
        dram_hit = self._dram_hit
        dram_miss = self._dram_miss
        dram_conflict = self._dram_conflict
        dram_busy = self._dram_busy
        dram_open = self._dram_open
        dram_ready = self._dram_ready
        l1_ways = l1s[0].ways
        l2_ways = l2s[0].ways
        core_stats = self._core_stats
        telemetry = self.telemetry
        traces = cursor.traces
        finish = cursor.finish
        lockstep = cursor.lockstep

        # -- decode windows: the current one of every core, kept on the
        # cursor between segments; heap entries index into them ----------
        if cursor.decoded is None:
            infos: list[dict] = [{} for _ in range(n_cores)]
            cols_t: list = [[]] * n_cores
            gaps_t: list = [()] * n_cores
            base_t = [0] * n_cores
            for _ready, core, idx in cursor.heap:
                cols_t[core], gaps_t[core], base_t[core] = self._window(
                    traces[core], core, idx, infos[core]
                )
            ends = [len(cols) for cols in cols_t]
            cursor.decoded = (cols_t, gaps_t, base_t, ends, infos)
        cols_t, gaps_t, base_t, ends, infos = cursor.decoded
        heap = [(r, core, idx - base_t[core]) for r, core, idx in cursor.heap]
        seg_from = [0] * n_cores  # window index each core's segment began
        for _ready, core, idx in heap:
            seg_from[core] = idx
        active = [core for _ready, core, _idx in heap]

        # -- per-path tallies (every stats/energy field derives from
        # these at the flush; see the mapping there) -----------------------
        c_l1h = [0] * n_cores
        c_l2h = [0] * n_cores
        c_l2m = [0] * n_cores
        n_hit = 0  # LLC home hits
        n_fill = 0  # memory fills
        n_fwd = 0  # non-inclusive forward fills
        n_wb = 0  # dirty writebacks to DRAM (evict + notice paths)
        n_wb_in = 0  # writebacks absorbed by the LLC home copy
        n_notice = 0  # eviction notices

        for gpos in range(cursor.pos, stop):
            ready, core, idx = heappop(heap)
            if telemetry is not None:
                telemetry.access_index = gpos
            (
                (addr, lat, bank, sid, dsid, s2, b2, s1, b1, gb, row),
                is_write, off,
            ) = cols_t[core][idx]
            issue = gpos if lockstep else ready + off

            # ---- access (fused) ------------------------------------------
            l1 = l1s[core]
            p = l1.map.get(addr, -1)
            if p >= 0:
                c_l1h[core] += 1
                extra = 0
                if is_write:
                    if not l1.dirty[p]:
                        extra = self._write_upgrade(core, addr)
                    l1.dirty[p] = True
                l1.clock += 1
                l1.stamp[p] = l1.clock
                latency = l1_lat + extra
            else:
                l2 = l2s[core]
                p = l2.map.get(addr, -1)
                notice2 = None
                if p >= 0:
                    c_l2h[core] += 1
                    extra = 0
                    if is_write:
                        if not l2.dirty[p]:
                            extra = self._write_upgrade(core, addr)
                        l2.dirty[p] = True
                    l2.clock += 1
                    l2.stamp[p] = l2.clock
                    latency = l12_lat + extra
                else:
                    c_l2m[core] += 1
                    # ---- LLC access: the front part of its outcome -------
                    dpos = d_map.get(addr, -1)
                    if 0 <= dpos < d_slice:
                        d_nru[dpos] = True
                    if dpos >= 0 and d_reloc[dpos] >= 0:
                        latency = self._relocated_hit(
                            core, addr, dpos, is_write, issue, lat
                        )
                    else:
                        hp = llc_map.get(addr, -1)
                        if hp >= 0 and not (llc_meta[hp] & 2):
                            # ---- home hit: coherence, touch, NotInPrC off
                            extra = 0
                            if dpos >= 0:
                                if is_write:
                                    if d_sharers[dpos] & ~(1 << core):
                                        extra = self._coherence_on_miss(
                                            core, addr, dpos, is_write, issue
                                        )
                                else:
                                    ow = d_owner[dpos]
                                    if ow >= 0 and ow != core:
                                        extra = self._coherence_on_miss(
                                            core, addr, dpos, is_write, issue
                                        )
                            m = llc_meta[hp]
                            if pol_lru:
                                llc_clock[bank] += 1
                                llc_stamp[hp] = llc_clock[bank]
                                llc_meta[hp] = m & ~4
                            elif pol_srrip:
                                llc_meta[hp] = m & 0xB  # RRPV -> 0, NIP off
                            else:
                                llc_meta[hp] = (m | 8) & ~4
                            if ziv:
                                if m & 4:
                                    llc_nip[sid] -= 1
                                    if m >> 4 >= _MAX_RRPV:
                                        llc_nipmax[sid] -= 1
                                refresh(sid)
                            n_hit += 1
                            latency = lat + data_lat + extra
                        else:
                            if dpos >= 0:
                                # ---- forward fill: the non-inclusive
                                # fourth case (a sharer supplies the data)
                                if inclusive:
                                    raise CoherenceError(
                                        f"inclusive LLC missed on a "
                                        f"directory-tracked block {addr:#x}"
                                    )
                                n_fwd += 1
                                latency = lat + fwd_lat + (
                                    self._coherence_on_miss(
                                        core, addr, dpos, is_write, issue
                                    )
                                )
                            else:
                                # ---- memory fill -------------------------
                                n_fill += 1
                                wait = dram_ready[gb] - issue
                                if wait < 0:
                                    wait = 0
                                open_row = dram_open[gb]
                                if open_row == row:
                                    latency = lat + wait + dram_hit
                                elif open_row < 0:
                                    latency = lat + wait + dram_miss
                                else:
                                    latency = lat + wait + dram_conflict
                                dram_open[gb] = row
                                dram_ready[gb] = issue + wait + dram_busy
                            # ---- LLC install (every scheme) --------------
                            ibase = sid * ways
                            if llc_vcount[sid] < ways:
                                ip = llc_tag.index(-1, ibase, ibase + ways)
                                llc_vcount[sid] += 1
                            else:
                                if pol_lru:
                                    seg = llc_stamp[ibase:ibase + ways]
                                    ip = ibase + seg.index(min(seg))
                                else:
                                    ip = victim(ibase)
                                vaddr = llc_tag[ip]
                                if inclusive:
                                    vd = d_map.get(vaddr, -1)
                                    if 0 <= vd < d_slice:
                                        d_nru[vd] = True
                                    if vd >= 0 and d_sharers[vd]:
                                        if ziv:
                                            # a privately cached victim:
                                            # relocation installs addr
                                            self._relocation_path(
                                                bank, sid, ip, addr, issue
                                            )
                                            ip = -1
                                        else:
                                            self._back_invalidate(vaddr, vd)
                                if ip >= 0:
                                    # evict: the tag and the set's valid
                                    # count are overwritten below
                                    m = llc_meta[ip]
                                    if ziv and m & 4:
                                        llc_nip[sid] -= 1
                                        if m >> 4 >= _MAX_RRPV:
                                            llc_nipmax[sid] -= 1
                                    del llc_map[vaddr]
                                    if m & 1:
                                        # dirty writeback: latency is
                                        # discarded, only bank state moves
                                        vrest = vaddr >> dch_shift
                                        vgb = ((vaddr & dch_mask) * dbpc
                                               + (vrest & dbk_mask))
                                        vw = dram_ready[vgb] - issue
                                        if vw < 0:
                                            vw = 0
                                        dram_open[vgb] = (
                                            (vrest >> dbk_shift) >> drow_bits
                                        )
                                        dram_ready[vgb] = (
                                            issue + vw + dram_busy
                                        )
                                        n_wb += 1
                            if ip >= 0:
                                llc_tag[ip] = addr
                                llc_map[addr] = ip
                                if pol_lru:
                                    llc_meta[ip] = 0
                                    llc_clock[bank] += 1
                                    llc_stamp[ip] = llc_clock[bank]
                                elif pol_srrip:
                                    llc_meta[ip] = (_MAX_RRPV - 1) << 4
                                    llc_stamp[ip] = 0
                                else:
                                    llc_meta[ip] = 8
                                    llc_stamp[ip] = 0
                                if ziv:
                                    refresh(sid)
                    # ---- one tail for every L2 miss: directory entry,
                    # sharer and owner, then the L2 fill ------------------
                    if dpos < 0:
                        dbase = dsid * d_ways
                        dend = dbase + d_ways
                        displaced = None
                        if d_vcount[dsid] < d_ways:
                            dpos = d_addr.index(-1, dbase, dend)
                            d_vcount[dsid] += 1
                        else:
                            try:
                                dpos = d_nru.index(False, dbase, dend)
                            except ValueError:
                                d_nru[dbase:dend] = [False] * d_ways
                                dpos = dbase
                            displaced = (
                                d_addr[dpos],
                                d_sharers[dpos],
                                d_owner[dpos],
                                d_reloc[dpos],
                            )
                            del d_map[d_addr[dpos]]
                        d_addr[dpos] = addr
                        d_sharers[dpos] = 0
                        d_owner[dpos] = -1
                        d_nru[dpos] = True
                        d_reloc[dpos] = -1
                        d_map[addr] = dpos
                        if displaced is not None:
                            if zerodev:
                                self._spill(displaced)
                            else:
                                self._handle_displaced(displaced, issue)
                    d_sharers[dpos] |= 1 << core
                    if is_write:
                        d_owner[dpos] = core
                    t2 = l2.tag
                    if l2.vcount[s2] < l2_ways:
                        fp = t2.index(-1, b2, b2 + l2_ways)
                        l2.vcount[s2] += 1
                    else:
                        seg = l2.stamp[b2:b2 + l2_ways]
                        fp = b2 + seg.index(min(seg))
                        old_addr = t2[fp]
                        old_dirty = l2.dirty[fp]
                        del l2.map[old_addr]
                        lp = l1.map.get(old_addr, -1)
                        if lp >= 0:
                            if old_dirty:
                                l1.dirty[lp] = True
                        else:
                            notice2 = (old_addr, old_dirty)
                    t2[fp] = addr
                    l2.map[addr] = fp
                    l2.dirty[fp] = is_write
                    l2.clock += 1
                    l2.stamp[fp] = l2.clock
                # ---- L1 fill (after an L2 hit or the L2 fill) -------------
                t1 = l1.tag
                notice1 = None
                if l1.vcount[s1] < l1_ways:
                    fp = t1.index(-1, b1, b1 + l1_ways)
                    l1.vcount[s1] += 1
                else:
                    seg = l1.stamp[b1:b1 + l1_ways]
                    fp = b1 + seg.index(min(seg))
                    old_addr = t1[fp]
                    old_dirty = l1.dirty[fp]
                    del l1.map[old_addr]
                    lp = l2.map.get(old_addr, -1)
                    if lp >= 0:
                        if old_dirty:
                            l2.dirty[lp] = True
                    else:
                        notice1 = (old_addr, old_dirty)
                t1[fp] = addr
                l1.map[addr] = fp
                l1.dirty[fp] = is_write
                l1.clock += 1
                l1.stamp[fp] = l1.clock
                # ---- eviction notices: the L2's, then the L1's ------------
                if notice2 is not None or notice1 is not None:
                    for notice in (notice2, notice1):
                        if notice is None:
                            continue
                        naddr, ndirty = notice
                        n_notice += 1
                        nd = d_map.get(naddr, -1)
                        if nd < 0:
                            raise CoherenceError(
                                f"eviction notice for untracked block "
                                f"{naddr:#x}"
                            )
                        sh = d_sharers[nd] & ~(1 << core)
                        if sh:
                            # the entry stays: the lookup's NRU touch and
                            # the sharer/owner update (a freed entry is
                            # reset below instead)
                            if nd < d_slice:
                                d_nru[nd] = True
                            d_sharers[nd] = sh
                            if d_owner[nd] == core:
                                d_owner[nd] = -1
                            continue
                        rp = d_reloc[nd]
                        if rp >= 0:
                            self._kill_relocated(rp, naddr, ndirty, issue)
                            self._dir_free(naddr)
                            continue
                        del d_map[naddr]
                        if nd >= d_slice:
                            del d_spill_addrs[naddr]
                            d_spill_free.append(nd)
                        else:
                            d_vcount[nd // d_ways] -= 1
                        d_addr[nd] = -1
                        d_sharers[nd] = 0
                        d_owner[nd] = -1
                        d_nru[nd] = False
                        d_reloc[nd] = -1
                        hp = llc_map.get(naddr, -1)
                        if hp >= 0 and not (llc_meta[hp] & 2):
                            m = llc_meta[hp]
                            if ndirty:
                                llc_meta[hp] = m | 5
                                n_wb_in += 1
                            else:
                                llc_meta[hp] = m | 4
                            if ziv:
                                nsid = hp // ways
                                if not (m & 4):
                                    llc_nip[nsid] += 1
                                    if m >> 4 >= _MAX_RRPV:
                                        llc_nipmax[nsid] += 1
                                refresh(nsid)
                        elif ndirty:
                            nrest = naddr >> dch_shift
                            ngb = ((naddr & dch_mask) * dbpc
                                   + (nrest & dbk_mask))
                            nw = dram_ready[ngb] - issue
                            if nw < 0:
                                nw = 0
                            dram_open[ngb] = (nrest >> dbk_shift) >> drow_bits
                            dram_ready[ngb] = issue + nw + dram_busy
                            n_wb += 1

            # ---- bookkeeping (port of the generic loop's tail) ----------
            idx += 1
            if idx < ends[core]:
                heappush(heap, (
                    base_t[core] + idx if lockstep else issue + latency,
                    core, idx,
                ))
            elif base_t[core] + idx < len(traces[core]):
                # window exhausted: retire its instructions, decode the next
                cs = core_stats[core]
                cs.instructions += (
                    sum(gaps_t[core][seg_from[core]:]) + idx - seg_from[core]
                )
                cols_t[core], gaps_t[core], base_t[core] = self._window(
                    traces[core], core, base_t[core] + idx, infos[core]
                )
                ends[core] = len(cols_t[core])
                seg_from[core] = 0
                heappush(heap, (
                    base_t[core] if lockstep else issue + latency, core, 0
                ))
            else:
                finish[core] = issue + latency
                core_stats[core].cycles = issue + latency

        # -- flush: derive every stats/energy field from the tallies -------
        # Inline paths tally one counter each; the full counter set
        # follows arithmetically (each access is exactly one of l1-hit /
        # l2-hit / llc-access, and the memory-fill path bumps the miss,
        # fill, DRAM-read and data-write counters in lockstep).
        # Instructions count the records this segment retired.
        done = list(ends)  # cores that finished retired their window
        for _ready, core, idx in heap:
            done[core] = idx
        for core in active:
            core_stats[core].instructions += (
                sum(gaps_t[core][seg_from[core]:done[core]])
                + done[core] - seg_from[core]
            )
        cursor.heap = [
            (r, core, idx + base_t[core]) for r, core, idx in heap
        ]
        cursor.pos = stop
        tot_acc = 0
        tot_l1h = 0
        tot_llc = 0
        for core in range(n_cores):
            l1h = c_l1h[core]
            l2h = c_l2h[core]
            l2m = c_l2m[core]
            acc = l1h + l2h + l2m
            tot_acc += acc
            tot_l1h += l1h
            tot_llc += l2m
            cs = core_stats[core]
            cs.accesses += acc
            cs.l1_hits += l1h
            cs.l1_misses += l2h + l2m
            cs.l2_hits += l2h
            cs.l2_misses += l2m
        stats = self.stats
        stats.llc_hits += n_hit
        stats.llc_misses += n_fill + n_fwd
        stats.llc_fills += n_fill
        stats.dram_reads += n_fill
        stats.dram_writes += n_wb
        stats.llc_writebacks_in += n_wb_in
        stats.llc_writebacks_out += n_wb
        stats.eviction_notices += n_notice
        energy = self.energy
        energy.l1_accesses += tot_acc
        energy.l2_accesses += tot_acc - tot_l1h
        energy.llc_tag_accesses += tot_llc
        energy.dir_accesses += tot_llc
        energy.llc_data_reads += n_hit
        energy.llc_data_writes += n_fill + n_fwd
        energy.dram_accesses += n_fill + n_wb

    # ------------------------------------------------------------ finalisation

    def finalize_stats(self) -> None:
        """Copy late-bound counters into the stats object (same contract
        as CacheHierarchy.finalize_stats)."""
        self.stats.directory_spills = self.spill_count
        scheme_stats = self.scheme.on_stats()
        pv_flips = scheme_stats.get("pv_flips")
        if pv_flips is not None:
            self.energy.pv_updates = pv_flips

    # ------------------------------------------------------------ diagnostics

    def audit_violations(self) -> list:
        """One full invariant-audit sweep (same checks as the object
        engine, run through the array views)."""
        from repro.sim.audit import audit_hierarchy

        return audit_hierarchy(self)
