"""Human-readable reports over simulation results."""

from __future__ import annotations

from typing import Any

from repro.sim.engine import SimResult
from repro.sim.metrics import mix_speedup


def counter_attribution(stats: Any, config: Any = None) -> dict:
    """Deterministic hot-path shares from a run's own counters.

    Each access terminates at exactly one level (L1 hit, L2 hit, LLC
    hit, or a memory fill); weighting each terminal population by its
    configured access latency estimates where the access loop's work
    went, using nothing but the counters both engines already maintain
    -- so the attribution is bit-identical across engines and across
    cached/fresh executions of the same recipe."""
    l1_hits = sum(c.l1_hits for c in stats.cores)
    l2_hits = sum(c.l2_hits for c in stats.cores)
    llc_hits = stats.llc_hits
    fills = stats.llc_misses
    if config is not None:
        w1 = config.l1.latency
        w2 = config.l1.latency + config.l2.latency
        w3 = w2 + config.llc.tag_latency + config.llc.data_latency
        w4 = w3 + config.dram.row_miss_latency
    else:
        w1, w2, w3, w4 = 1, 2, 3, 4
    weighted = {
        "l1_hit": l1_hits * w1,
        "l2_hit": l2_hits * w2,
        "llc_hit": llc_hits * w3,
        "dram_fill": fills * w4,
    }
    total = sum(weighted.values())
    if total <= 0:
        return {}
    return {name: value / total for name, value in weighted.items()}


def _largest_first(shares: dict) -> list:
    return sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))


def describe_result(result: SimResult, config: Any = None) -> str:
    """Multi-line summary of one run (the CLI's ``run`` output).

    ``config`` (the run's :class:`~repro.params.SystemConfig`) weights
    the hot-path attribution by its latencies; without it every level
    one step up costs one unit more."""
    s = result.stats
    lines = [
        f"workload      : {result.workload}",
        f"scheme/policy : {result.scheme} / {result.policy}",
        f"cycles        : {result.cycles}",
        f"instructions  : {s.total_instructions}",
        f"accesses      : {s.total_accesses}",
        f"LLC hits/miss : {s.llc_hits} / {s.llc_misses}",
        f"L2 misses     : {s.l2_misses}",
        (
            f"incl. victims : {s.inclusion_victims_llc} (LLC) + "
            f"{s.inclusion_victims_dir} (directory)"
        ),
        (
            f"relocations   : {s.relocations} "
            f"({s.relocation_same_set} resolved in-set, "
            f"{s.relocations_cross_bank} cross-bank)"
        ),
        f"DRAM reads/wr : {s.dram_reads} / {s.dram_writes}",
    ]
    if s.prefetches_issued:
        lines.append(
            f"prefetches    : {s.prefetches_issued} issued, "
            f"{s.prefetch_useful} useful"
        )
    if result.energy is not None:
        epi = result.energy.epi_pj(max(1, s.total_instructions))
        lines.append(f"energy        : {epi:.1f} pJ/instruction")
    if result.audit is not None:
        lines.append(
            f"audit         : {len(result.audit.violations)} violation(s) "
            f"over {result.audit.sweeps} sweep(s)"
            + (" [truncated]" if result.audit.truncated else "")
        )
    if result.telemetry is not None:
        t = result.telemetry
        lines.append(
            f"telemetry     : {len(t.series)} sample(s) at interval "
            f"{t.params.interval}"
            + (f", {t.series.dropped} dropped" if t.series.dropped else "")
        )
        if t.params.event_categories():
            lines.append(
                f"events        : {len(t.events)} traced "
                f"({'+'.join(t.params.event_categories())})"
                + (f", {t.dropped_events} dropped"
                   if t.dropped_events else "")
            )
    if result.phases:
        lines.append("phases        : " + " | ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in _largest_first(result.phases)
        ))
    hot = _largest_first(counter_attribution(result.stats, config))
    if hot:
        lines.append("hot path      : " + " ".join(
            f"{name} {share:.0%}" for name, share in hot
        ))
    return "\n".join(lines)


def compare_results(baseline: SimResult, candidate: SimResult) -> str:
    """Side-by-side delta report (candidate vs baseline)."""
    b, c = baseline.stats, candidate.stats

    def ratio(x, y):
        return f"{x / y:.3f}x" if y else "n/a"

    lines = [
        f"candidate {candidate.scheme}/{candidate.policy} "
        f"vs baseline {baseline.scheme}/{baseline.policy}",
        f"speedup        : {mix_speedup(baseline, candidate):.3f}",
        f"LLC misses     : {c.llc_misses} vs {b.llc_misses} "
        f"({ratio(c.llc_misses, b.llc_misses)})",
        f"L2 misses      : {c.l2_misses} vs {b.l2_misses} "
        f"({ratio(c.l2_misses, b.l2_misses)})",
        f"incl. victims  : {c.inclusion_victims_llc} vs "
        f"{b.inclusion_victims_llc}",
        f"relocations    : {c.relocations} vs {b.relocations}",
        f"DRAM traffic   : {c.dram_reads + c.dram_writes} vs "
        f"{b.dram_reads + b.dram_writes}",
    ]
    return "\n".join(lines)
