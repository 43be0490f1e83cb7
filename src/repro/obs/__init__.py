"""Fleet-level observability: run ledger, metrics, regression checks.

``repro.obs`` is the observability backbone the simulation-service
direction needs before any HTTP layer exists (ROADMAP): a provenance
**ledger** of every completed run, phase times included
(:mod:`repro.obs.ledger`), a **metrics registry** with Prometheus
text-exposition and JSON exporters (:mod:`repro.obs.registry`), and a
**perf-regression checker** comparing current throughput against the
committed ``BENCH_*.json`` history and prior ledger entries
(:mod:`repro.obs.regress`).  The ``repro obs`` CLI
(:mod:`repro.obs.cli`) fronts all three.

Import discipline: nothing in this package imports ``repro.sim`` at
module level, so the simulation layers import the ledger at module
level without a cycle.  The package sits inside the determinism lint scope:
each wall-clock read here carries a suppression with its reason, and
timings feed the ledger and the metrics only, never a simulated
counter.
"""

from repro.obs.ledger import (
    LEDGER_VERSION,
    LedgerRecord,
    append_record,
    config_digest,
    iter_ledger,
    ledger_enabled,
    ledger_path,
    read_ledger,
    record_from_result,
)
from repro.obs.registry import (
    MetricsRegistry,
    parse_prometheus,
    registry_from_ledger,
)
from repro.obs.regress import Comparison, RegressReport, run_regress

__all__ = [
    "LEDGER_VERSION",
    "LedgerRecord",
    "append_record",
    "config_digest",
    "iter_ledger",
    "ledger_enabled",
    "ledger_path",
    "read_ledger",
    "record_from_result",
    "MetricsRegistry",
    "parse_prometheus",
    "registry_from_ledger",
    "Comparison",
    "RegressReport",
    "run_regress",
]
