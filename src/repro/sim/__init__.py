"""Simulation driver: traces, engine, statistics, metrics, tooling."""

from repro.sim.trace import TraceRecord, CoreTrace, Workload, lockstep_stream
from repro.sim.stats import SimStats, CoreStats
from repro.sim.engine import Simulation, SimResult
from repro.sim.metrics import (
    geomean,
    normalized_speedups,
    speedup_summary,
    weighted_speedup,
)
from repro.sim.parallel import (
    RunRecipe,
    cache_info,
    clear_result_cache,
    make_recipe,
    run_many,
)
from repro.sim.report import compare_results, describe_result
from repro.sim.telemetry import (
    ProgressPrinter,
    RunProgress,
    TelemetryCollector,
    TelemetryEvent,
    TelemetryResult,
    TimeSeries,
    events_from_jsonl,
    events_to_jsonl,
    parse_telemetry_spec,
    resolve_telemetry,
)
from repro.sim.tracefile import load_workload, save_workload

__all__ = [
    "TraceRecord",
    "CoreTrace",
    "Workload",
    "lockstep_stream",
    "SimStats",
    "CoreStats",
    "Simulation",
    "SimResult",
    "geomean",
    "normalized_speedups",
    "speedup_summary",
    "weighted_speedup",
    "RunRecipe",
    "make_recipe",
    "run_many",
    "cache_info",
    "clear_result_cache",
    "describe_result",
    "compare_results",
    "save_workload",
    "load_workload",
    "TelemetryCollector",
    "TelemetryEvent",
    "TelemetryResult",
    "TimeSeries",
    "RunProgress",
    "ProgressPrinter",
    "parse_telemetry_spec",
    "resolve_telemetry",
    "events_to_jsonl",
    "events_from_jsonl",
]
