"""Configuration dataclasses for the simulated CMP.

The paper (Table I) simulates an eight-core CMP with 32 KB L1 caches,
256/512/768 KB per-core L2 caches, and an 8 MB 16-way shared LLC split into
eight banks, backed by a 2x sparse coherence directory.  A pure-Python
cycle-level model of that machine at full scale would be far too slow, so the
default presets here are *geometrically scaled*: every capacity ratio the
paper identifies as first-order (aggregate-L2/LLC, L1/L2, directory
provisioning factor) is preserved while absolute capacities shrink by a
constant factor.  ``paper_scale_config`` builds the full-size geometry for
users with the patience (or PyPy) to run it.

All capacities are expressed in *blocks* (cache lines); the block size only
matters for address arithmetic and storage-overhead reporting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional


BLOCK_SHIFT = 6
BLOCK_BYTES = 1 << BLOCK_SHIFT


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache array.

    ``sets`` must be a power of two so that set indexing is a bit slice of
    the block address, as in the paper's "simple hash functions" assumption.
    """

    sets: int
    ways: int
    latency: int = 1

    def __post_init__(self) -> None:
        if not _is_pow2(self.sets):
            raise ConfigError(f"sets must be a power of two, got {self.sets}")
        if self.ways <= 0:
            raise ConfigError(f"ways must be positive, got {self.ways}")
        if self.latency < 0:
            raise ConfigError(f"latency must be >= 0, got {self.latency}")

    @property
    def blocks(self) -> int:
        return self.sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        return self.blocks * BLOCK_BYTES

    def set_index(self, block_addr: int) -> int:
        return block_addr & (self.sets - 1)


@dataclass(frozen=True)
class LLCGeometry:
    """Geometry of the banked shared LLC.

    The home bank of a block is selected by the low bits of the block
    address; the set within the bank by the next bits, mirroring an
    address-interleaved banked LLC.
    """

    banks: int
    sets_per_bank: int
    ways: int
    tag_latency: int = 2
    data_latency: int = 5

    def __post_init__(self) -> None:
        if not _is_pow2(self.banks):
            raise ConfigError(f"banks must be a power of two, got {self.banks}")
        if not _is_pow2(self.sets_per_bank):
            raise ConfigError(
                f"sets_per_bank must be a power of two, got {self.sets_per_bank}"
            )
        if self.ways <= 0:
            raise ConfigError(f"ways must be positive, got {self.ways}")

    @property
    def blocks(self) -> int:
        return self.banks * self.sets_per_bank * self.ways

    @property
    def capacity_bytes(self) -> int:
        return self.blocks * BLOCK_BYTES

    def bank_index(self, block_addr: int) -> int:
        return block_addr & (self.banks - 1)

    def set_index(self, block_addr: int) -> int:
        return (block_addr >> (self.banks - 1).bit_length()) & (
            self.sets_per_bank - 1
        )


@dataclass(frozen=True)
class DirectoryGeometry:
    """Geometry of one sparse-directory slice (one slice per LLC bank).

    The paper provisions the directory with twice the number of entries as
    aggregate L2 tags (a "2x sparse directory"), organised 8-way with 1-bit
    NRU replacement.
    """

    sets: int
    ways: int = 8

    def __post_init__(self) -> None:
        if not _is_pow2(self.sets):
            raise ConfigError(f"sets must be a power of two, got {self.sets}")
        if self.ways <= 0:
            raise ConfigError(f"ways must be positive, got {self.ways}")

    @property
    def entries(self) -> int:
        return self.sets * self.ways

    def set_index(self, block_addr: int, banks: int) -> int:
        """Slice-set index with XOR folding.

        Sparse directories hash the index to spread conflicts: a plain
        bit-slice would alias the identically laid-out address spaces of
        different processes onto the same few sets."""
        a = block_addr >> (banks - 1).bit_length()
        bits = (self.sets - 1).bit_length()
        if bits == 0:
            return 0
        idx = 0
        while a:
            idx ^= a
            a >>= bits
        return idx & (self.sets - 1)


@dataclass(frozen=True)
class DRAMParams:
    """Latency parameters of the event-cost DDR3-like model (in CPU cycles).

    Defaults approximate a 4 GHz core in front of DDR3-2133 with
    14-14-14-35 timing, as in Table I: a row-buffer hit costs roughly the
    CAS latency plus channel transfer; a row miss adds activate; a conflict
    adds precharge.
    """

    channels: int = 2
    banks_per_channel: int = 16
    row_bits: int = 4  # log2(blocks per row buffer): 1 KB row = 16 blocks
    row_hit_latency: int = 90
    row_miss_latency: int = 150
    row_conflict_latency: int = 210
    bank_busy: int = 24  # cycles a bank stays busy per request

    def __post_init__(self) -> None:
        if not _is_pow2(self.channels):
            raise ConfigError("channels must be a power of two")
        if not _is_pow2(self.banks_per_channel):
            raise ConfigError("banks_per_channel must be a power of two")


@dataclass(frozen=True)
class CoreParams:
    """Timing parameters of the simple in-order core cost model."""

    base_cpi: float = 0.5  # CPI of non-memory instructions (4-wide-ish)
    interconnect_latency: int = 8  # one-way core <-> LLC bank (flat model)
    interconnect_kind: str = "flat"  # "flat" or "mesh" (Table I's 2D mesh)
    relocated_access_penalty: int = 2  # extra cycles for relocated blocks
    coherence_forward_latency: int = 20  # cross-core data forward

    def __post_init__(self) -> None:
        if self.interconnect_kind not in ("flat", "mesh"):
            raise ConfigError(
                f"unknown interconnect kind {self.interconnect_kind!r}"
            )


@dataclass(frozen=True)
class PrefetchParams:
    """L2 hardware prefetcher configuration.

    The paper's CMP model has no prefetcher (its CHAR adaptation notes the
    prefetch attribute is constant); the prefetcher here exists for the
    inclusion-policy x prefetching ablation in the spirit of Backes &
    Jimenez (MEMSYS 2019), which the paper cites as [1].
    """

    kind: str = "none"  # "none" | "nextline" | "stride"
    degree: int = 2
    table_entries: int = 256  # stride-table size
    min_confidence: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("none", "nextline", "stride"):
            raise ConfigError(f"unknown prefetcher kind {self.kind!r}")
        if self.degree <= 0:
            raise ConfigError("prefetch degree must be positive")


@dataclass(frozen=True)
class AuditParams:
    """Runtime invariant-auditor settings (see :mod:`repro.sim.audit`).

    ``interval`` selects the sampling cadence: ``0`` audits at end of run
    only, ``1`` after every access, ``N`` after every N-th access (an
    end-of-run sweep always runs when the auditor is enabled).  With
    ``fail_fast`` the first violating sweep raises
    :class:`~repro.sim.audit.AuditError`; otherwise violations are
    collected into ``SimResult.audit`` (capped at ``max_violations``).

    Audit settings are part of :class:`SystemConfig`, so they participate
    in the parallel runner's recipe cache key: audited and unaudited runs
    never alias in the persistent result cache.
    """

    enabled: bool = False
    interval: int = 0
    fail_fast: bool = False
    max_violations: int = 64

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ConfigError(
                f"audit interval must be >= 0, got {self.interval}"
            )
        if self.max_violations <= 0:
            raise ConfigError(
                f"audit max_violations must be positive, "
                f"got {self.max_violations}"
            )


#: Telemetry severity levels, least to most severe.
TELEMETRY_SEVERITIES = ("debug", "info", "warn")

#: Telemetry event categories (see :mod:`repro.sim.telemetry`).
TELEMETRY_CATEGORIES = ("relocation", "coherence", "directory", "char")


@dataclass(frozen=True)
class TelemetryParams:
    """Telemetry-layer settings (see :mod:`repro.sim.telemetry`).

    ``interval`` is the sampling cadence in accesses: every ``interval``-th
    access the collector snapshots the delta of every
    :class:`~repro.sim.stats.SimStats` counter plus the live gauges
    (relocation-FIFO depth, per-property ``emptyPV`` state, CHAR ``d``,
    directory occupancy) into a ring-buffered time series of at most
    ``ring_capacity`` samples (oldest dropped first).

    ``events`` selects structured event tracing: the empty string traces
    nothing, ``"all"`` traces every category, and a ``+``-joined list
    (e.g. ``"relocation+char"``) traces a subset.  Events below
    ``min_severity`` are dropped; at most ``max_events`` are retained.

    Telemetry settings are part of :class:`SystemConfig`, so they
    participate in the parallel runner's recipe cache key exactly like
    :class:`AuditParams`: a telemetry-enabled run never aliases a plain
    run in the persistent result cache.  With ``enabled=False`` the
    simulation adds no per-access work beyond one predicate check.
    """

    enabled: bool = False
    interval: int = 1000
    ring_capacity: int = 4096
    events: str = ""
    max_events: int = 65536
    min_severity: str = "info"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(
                f"telemetry interval must be positive, got {self.interval}"
            )
        if self.ring_capacity <= 0:
            raise ConfigError(
                f"telemetry ring_capacity must be positive, "
                f"got {self.ring_capacity}"
            )
        if self.max_events <= 0:
            raise ConfigError(
                f"telemetry max_events must be positive, "
                f"got {self.max_events}"
            )
        if self.min_severity not in TELEMETRY_SEVERITIES:
            raise ConfigError(
                f"unknown telemetry severity {self.min_severity!r}; "
                f"expected one of {TELEMETRY_SEVERITIES}"
            )
        for cat in self.event_categories():
            if cat not in TELEMETRY_CATEGORIES:
                raise ConfigError(
                    f"unknown telemetry event category {cat!r}; "
                    f"expected one of {TELEMETRY_CATEGORIES} or 'all'"
                )

    def event_categories(self) -> tuple[str, ...]:
        """The traced categories as a tuple ('all' expanded)."""
        if not self.events:
            return ()
        if self.events == "all":
            return TELEMETRY_CATEGORIES
        return tuple(
            tok for tok in (t.strip() for t in self.events.split("+")) if tok
        )


@dataclass(frozen=True)
class CHARParams:
    """Parameters of the adapted CHAR dead-block inference (paper III-D6)."""

    initial_d: int = 6
    min_d: int = 1
    decrement_interval: int = 4096  # private-cache eviction notices
    reset_interval: int = 65536  # notices between periodic resets of d
    min_evictions: int = 16  # warm-up before a group may be inferred dead
    counter_halve_at: int = 4096  # halve group counters at this eviction count
    reuse_buckets: int = 4  # L2 demand-reuse count saturates at buckets-1


#: The simulation engines a configuration may name.  Shared with
#: ``config_io`` so dict-form validation (and the simulation service's
#: structured rejection errors) stays in lockstep with the constructor.
ENGINES: tuple[str, ...] = ("object", "fast")

#: The fast engine's envelope: the schemes and LLC policies it replicates
#: bit-exactly.  Kept here rather than in the engine module for the same
#: reason as ``ENGINES``: validating a fast recipe must not load the
#: engine.  ``repro.sim.fast`` re-exports them as ``SUPPORTED_SCHEMES``,
#: ``SUPPORTED_POLICIES`` and ``supports``.
FAST_SCHEMES = frozenset({
    "inclusive",
    "noninclusive",
    "ziv:notinprc",
    "ziv:lrunotinprc",
    "ziv:maxrrpvnotinprc",
})
FAST_POLICIES = frozenset({"lru", "srrip", "nru"})


def fast_supports(
    config: SystemConfig,
    scheme_name: str,
    llc_policy: str = "lru",
    scheme_kwargs: Optional[dict] = None,
    policy_kwargs: Optional[dict] = None,
) -> bool:
    """Whether the fast engine models this run bit-exactly."""
    return (
        scheme_name in FAST_SCHEMES
        and llc_policy in FAST_POLICIES
        and not scheme_kwargs
        and not policy_kwargs
        and config.prefetch.kind == "none"
    )


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated CMP configuration."""

    cores: int
    l1: CacheGeometry
    l2: CacheGeometry
    llc: LLCGeometry
    directory: DirectoryGeometry
    dram: DRAMParams = field(default_factory=DRAMParams)
    core: CoreParams = field(default_factory=CoreParams)
    char: CHARParams = field(default_factory=CHARParams)
    prefetch: PrefetchParams = field(default_factory=PrefetchParams)
    audit: AuditParams = field(default_factory=AuditParams)
    telemetry: TelemetryParams = field(default_factory=TelemetryParams)
    directory_mode: str = "mesi"  # "mesi" (bounded) or "zerodev" (spilling)
    relocation_fifo_depth: int = 8
    nextrs_latency: int = 3  # cycles to recompute decoded nextRS (synthesis)
    engine: str = "object"  # "object" (reference oracle) or "fast" (arrays)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError("cores must be positive")
        if self.directory_mode not in ("mesi", "zerodev"):
            raise ConfigError(f"unknown directory_mode {self.directory_mode!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.aggregate_private_blocks >= self.llc.blocks:
            raise ConfigError(
                "aggregate private cache capacity (L1 + L2; the private "
                "levels are mutually non-inclusive) must be smaller than "
                "the LLC for the ZIV guarantee to hold (paper III-B)"
            )

    @property
    def aggregate_l2_blocks(self) -> int:
        return self.cores * self.l2.blocks

    @property
    def aggregate_private_blocks(self) -> int:
        """Worst-case distinct privately cached blocks: the L1 and L2 are
        non-inclusive, so a core can pin l1.blocks + l2.blocks distinct
        blocks.  The paper's premise -- at least one LLC block has no
        private copies -- needs this sum below the LLC capacity."""
        return self.cores * (self.l1.blocks + self.l2.blocks)

    @property
    def directory_provisioning(self) -> float:
        """Directory entries as a multiple of aggregate L2 tags."""
        total_entries = self.llc.banks * self.directory.entries
        return total_entries / self.aggregate_l2_blocks

    def with_directory_factor(self, factor: float) -> "SystemConfig":
        """Return a copy whose sparse directory holds ``factor`` x aggregate
        L2 tags (used by the Fig. 15 sensitivity sweep)."""
        wanted = max(1, int(self.aggregate_l2_blocks * factor))
        per_slice = max(1, wanted // self.llc.banks)
        ways = self.directory.ways
        sets = max(1, per_slice // ways)
        # round down to a power of two
        sets = 1 << (sets.bit_length() - 1)
        return dataclasses.replace(
            self, directory=DirectoryGeometry(sets=sets, ways=ways)
        )

    def replace(self, **kwargs: Any) -> "SystemConfig":
        return dataclasses.replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Scaled L2 capacity points mirroring the paper's 256 KB / 512 KB / 768 KB.
#: Keys are the paper's labels; values are (sets, ways, latency).
SCALED_L2_POINTS = {
    "256KB": (8, 8, 4),
    "512KB": (16, 8, 5),
    "768KB": (16, 12, 6),
}

#: Scaled L2 point for Fig. 14 (1 MB per-core L2 with a 16 MB LLC).
SCALED_L2_1MB = (32, 8, 6)


def scaled_config(
    l2_point: str = "256KB",
    cores: int = 8,
    directory_mode: str = "mesi",
    directory_factor: float = 2.0,
    llc_scale: int = 1,
) -> SystemConfig:
    """Build the default geometrically scaled configuration.

    ``l2_point`` selects among the paper's three L2 capacity points.
    ``llc_scale`` doubles the LLC (and is used with the 1 MB L2 point to
    realise the Fig. 14 configuration).
    """

    if l2_point == "1MB":
        l2_sets, l2_ways, l2_lat = SCALED_L2_1MB
    else:
        try:
            l2_sets, l2_ways, l2_lat = SCALED_L2_POINTS[l2_point]
        except KeyError:
            raise ConfigError(
                f"unknown L2 point {l2_point!r}; expected one of "
                f"{sorted(SCALED_L2_POINTS)} or '1MB'"
            ) from None
    llc = LLCGeometry(banks=8, sets_per_bank=16 * llc_scale, ways=16)
    l2 = CacheGeometry(sets=l2_sets, ways=l2_ways, latency=l2_lat)
    l1 = CacheGeometry(sets=2, ways=8, latency=1)
    cfg = SystemConfig(
        cores=cores,
        l1=l1,
        l2=l2,
        llc=llc,
        directory=DirectoryGeometry(sets=1, ways=8),
        directory_mode=directory_mode,
    )
    return cfg.with_directory_factor(directory_factor)


def scaled_manycore_config(cores: int = 16) -> SystemConfig:
    """Scaled analogue of the paper's 128-core TPC-E system.

    The paper's server machine has a 32 MB LLC with 128 KB per-core L2
    caches; per-core L2 is half of the per-core LLC share.  We scale to 16
    cores with the same per-core ratios.
    """

    llc = LLCGeometry(banks=16, sets_per_bank=16, ways=16)
    # per-core LLC share = 16*16*16/16 = 256 blocks; L2 = half = 128 blocks
    l2 = CacheGeometry(sets=16, ways=8, latency=5)
    l1 = CacheGeometry(sets=2, ways=8, latency=1)
    cfg = SystemConfig(
        cores=cores,
        l1=l1,
        l2=l2,
        llc=llc,
        directory=DirectoryGeometry(sets=1, ways=8),
    )
    return cfg.with_directory_factor(2.0)


def paper_scale_config(l2_point: str = "256KB", cores: int = 8) -> SystemConfig:
    """Full-size geometry of the paper's Table I (slow in pure Python)."""

    points = {
        "256KB": CacheGeometry(sets=512, ways=8, latency=4),
        "512KB": CacheGeometry(sets=1024, ways=8, latency=5),
        "768KB": CacheGeometry(sets=1024, ways=12, latency=6),
    }
    try:
        l2 = points[l2_point]
    except KeyError:
        raise ConfigError(f"unknown L2 point {l2_point!r}") from None
    llc = LLCGeometry(banks=8, sets_per_bank=1024, ways=16)
    l1 = CacheGeometry(sets=64, ways=8, latency=1)
    cfg = SystemConfig(
        cores=cores,
        l1=l1,
        l2=l2,
        llc=llc,
        directory=DirectoryGeometry(sets=1, ways=8),
    )
    return cfg.with_directory_factor(2.0)
