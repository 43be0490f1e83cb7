"""Always-available telemetry: interval time series, event tracing, progress.

The end-of-run aggregates in :class:`~repro.sim.stats.SimStats` flatten
exactly the dynamics the paper argues about -- inter-relocation intervals
(Fig. 18), the CHAR threshold ``tau = 1/2^d`` adapting through the TRBV
(III-D6), property-vector occupancy over time.  This module makes those
dynamics first-class data, in three layers:

* **Interval sampling** -- every ``interval`` accesses the collector
  snapshots the *delta* of every scalar :class:`SimStats` counter (plus
  the per-core counters, aggregated) and a set of instantaneous gauges
  (relocation-FIFO depth, per-property ``emptyPV`` state, the live CHAR
  ``d``/``tau``, directory occupancy) into a ring-buffered
  :class:`TimeSeries`.  A final tail sample is always taken at end of
  run, so -- as long as the ring did not overflow -- summing any delta
  column reproduces the end-of-run counter exactly.

* **Structured event tracing** -- opt-in discrete events (relocations
  with their ``<bank, set, way>`` tuple and chosen property,
  re-relocations, cross-bank fallbacks, back-invalidations with their
  trigger, directory evictions, ``tau`` adjustments) with category and
  severity filtering, round-trippable through JSONL
  (:func:`events_to_jsonl` / :func:`events_from_jsonl`).

* **Run progress** -- :class:`RunProgress` heartbeats emitted by
  :func:`repro.sim.parallel.run_many` (accesses/second, ETA, cache
  hit/miss provenance), rendered by :class:`ProgressPrinter` behind the
  ``--progress`` CLI flag.

Settings travel as :class:`repro.params.TelemetryParams` inside
:class:`~repro.params.SystemConfig`, so they are part of the parallel
runner's recipe cache key (like ``AuditParams``); the compact spec string
(``--telemetry=250,events=relocation+char`` on the CLI) is parsed by
:func:`parse_telemetry_spec`.  When telemetry is disabled the engine's
hot loop pays exactly one predicate check per access and nothing else.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional, TextIO

from repro.params import (
    TELEMETRY_CATEGORIES,
    TELEMETRY_SEVERITIES,
    ConfigError,
    TelemetryParams,
)
from repro.sim.stats import CoreStats, SimStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hierarchy.cmp import CacheHierarchy

_OFF_TOKENS = ("off", "none", "false", "no", "disabled")

#: kind -> (category, severity) for every traced event type.
EVENT_KINDS = {
    "relocation": ("relocation", "info"),
    "re_relocation": ("relocation", "info"),
    "cross_bank_fallback": ("relocation", "warn"),
    "back_invalidation": ("coherence", "info"),
    "directory_eviction": ("directory", "info"),
    "tau_decrement": ("char", "info"),
    "tau_reset": ("char", "debug"),
}

_SEVERITY_RANK = {name: i for i, name in enumerate(TELEMETRY_SEVERITIES)}


# ---------------------------------------------------------------------------
# Spec parsing / resolution
# ---------------------------------------------------------------------------


def parse_telemetry_spec(spec: Optional[str]) -> TelemetryParams:
    """Parse a compact telemetry spec string into :class:`TelemetryParams`.

    Comma-separated tokens:

    * ``on`` (or empty) -- enable with defaults (sample every 1000th access)
    * an integer ``N`` -- sampling interval in accesses
    * ``ring=N`` -- ring-buffer capacity (samples retained)
    * ``events`` / ``events=all`` -- trace every event category
    * ``events=relocation+char`` -- trace a ``+``-joined category subset
    * ``maxevents=N`` -- retained-event cap
    * ``severity=debug|info|warn`` -- minimum traced severity
    * ``off`` -- telemetry disabled

    Examples: ``"250"``, ``"1000,events=relocation"``,
    ``"100,ring=8192,events=all,severity=debug"``.
    """
    if spec is None:
        return TelemetryParams()
    kwargs: dict = {"enabled": True}
    for raw in spec.split(","):
        token = raw.strip().lower()
        if not token or token == "on":
            continue
        if token in _OFF_TOKENS:
            kwargs["enabled"] = False
        elif token.lstrip("+").isdigit():
            kwargs["interval"] = int(token)
        elif token.startswith("ring="):
            kwargs["ring_capacity"] = _int_value(token)
        elif token.startswith("maxevents="):
            kwargs["max_events"] = _int_value(token)
        elif token.startswith("severity="):
            kwargs["min_severity"] = token.split("=", 1)[1]
        elif token == "events":
            kwargs["events"] = "all"
        elif token.startswith("events="):
            kwargs["events"] = token.split("=", 1)[1]
        else:
            raise ConfigError(
                f"bad telemetry spec token {token!r}; expected 'on', 'off', "
                f"an integer interval, 'ring=N', 'maxevents=N', "
                f"'severity=LEVEL' or 'events[=cat+cat]'"
            )
    return TelemetryParams(**kwargs)


def _int_value(token: str) -> int:
    name, _, value = token.partition("=")
    if not value.isdigit():
        raise ConfigError(f"telemetry {name} wants an integer, got {value!r}")
    return int(value)


def resolve_telemetry(
    explicit, config_telemetry: Optional[TelemetryParams] = None
) -> TelemetryParams:
    """Resolve the telemetry settings for one run.

    An explicit argument (a :class:`TelemetryParams` or a spec string)
    wins; else the configuration's own ``telemetry`` field (default:
    disabled)."""
    if explicit is not None:
        if isinstance(explicit, TelemetryParams):
            return explicit
        if isinstance(explicit, str):
            return parse_telemetry_spec(explicit)
        raise TypeError(
            f"telemetry must be TelemetryParams or a spec string, "
            f"got {type(explicit).__name__}"
        )
    return (
        config_telemetry if config_telemetry is not None else TelemetryParams()
    )


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryEvent:
    """One traced discrete event.

    ``access_index`` is the global position of the access during which the
    event occurred (-1 when outside any access).  ``data`` carries the
    kind-specific payload -- see ``docs/OBSERVABILITY.md`` for the schema
    of every kind."""

    kind: str
    category: str
    severity: str
    access_index: int
    data: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "category": self.category,
            "severity": self.severity,
            "access_index": self.access_index,
            **self.data,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TelemetryEvent":
        d = dict(d)
        return cls(
            kind=d.pop("kind"),
            category=d.pop("category"),
            severity=d.pop("severity"),
            access_index=d.pop("access_index"),
            data=d,
        )


def events_to_jsonl(events) -> str:
    """Serialise events to JSONL (one JSON object per line)."""
    return "".join(
        json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events
    )


def events_from_jsonl(text: str) -> list[TelemetryEvent]:
    """Parse a JSONL event stream back into :class:`TelemetryEvent`\\ s."""
    return [
        TelemetryEvent.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def write_events_jsonl(events, path) -> int:
    """Write events to a JSONL file; returns the number written."""
    events = list(events)
    with open(path, "w") as fh:
        fh.write(events_to_jsonl(events))
    return len(events)


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------


class TimeSeries:
    """A fixed-capacity ring of samples over named columns.

    Column 0 is always ``access_index`` (accesses completed when the
    sample was taken); delta columns carry the change of the matching
    counter since the previous sample; gauge columns carry instantaneous
    values.  When the ring is full the oldest sample is dropped and
    ``dropped`` incremented -- totals over a column are then lower bounds.
    """

    def __init__(self, columns: list, capacity: int) -> None:
        self.columns = list(columns)
        self.capacity = capacity
        self._samples: deque = deque(maxlen=capacity)
        self.dropped = 0
        self._index = {name: i for i, name in enumerate(self.columns)}

    def append(self, sample: tuple) -> None:
        if len(self._samples) == self.capacity:
            self.dropped += 1
        self._samples.append(sample)

    @property
    def samples(self) -> list:
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def column(self, name: str) -> list:
        """All values of one column, oldest first."""
        i = self._index[name]
        return [s[i] for s in self._samples]

    def total(self, name: str) -> int:
        """Sum of one (delta) column over the retained samples."""
        return sum(self.column(name))

    def to_dict(self) -> dict:
        return {
            "columns": self.columns,
            "samples": [list(s) for s in self._samples],
            "dropped": self.dropped,
            "capacity": self.capacity,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimeSeries":
        ts = cls(d["columns"], d["capacity"])
        for s in d["samples"]:
            ts.append(tuple(s))
        ts.dropped = d.get("dropped", 0)
        return ts


# ---------------------------------------------------------------------------
# The per-run result
# ---------------------------------------------------------------------------


@dataclass
class TelemetryResult:
    """Everything one run's telemetry collected (picklable, cached with
    the :class:`~repro.sim.engine.SimResult`)."""

    params: TelemetryParams
    series: TimeSeries
    events: list = field(default_factory=list)
    dropped_events: int = 0

    def summary(self) -> str:
        lines = [
            f"telemetry: {len(self.series)} sample(s) at interval "
            f"{self.params.interval}"
            + (f" ({self.series.dropped} dropped)" if self.series.dropped
               else "")
        ]
        if self.params.event_categories():
            lines.append(
                f"telemetry: {len(self.events)} event(s) traced"
                + (f" ({self.dropped_events} dropped)"
                   if self.dropped_events else "")
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The collector driven by the simulation engine
# ---------------------------------------------------------------------------

#: SimStats counters sampled as deltas, in field (and column) order: every
#: field but the per-core list, a high-water mark and a per-property dict.
SIMSTATS_COUNTERS = tuple(
    f.name for f in fields(SimStats)
    if f.name not in ("cores", "relocation_fifo_peak", "property_hits")
)

#: CoreStats counters sampled as deltas, summed over the cores: every
#: field but the two that time a core (its IPC's numerator and
#: denominator).
CORESTATS_COUNTERS = tuple(
    f.name for f in fields(CoreStats)
    if f.name not in ("instructions", "cycles")
)


class TelemetryCollector:
    """Samples counters/gauges and collects events over one simulation.

    The engine's segment loop stamps :attr:`access_index` with each
    access's global position before the access, so events carry it, and
    the driver calls :meth:`sample` between accesses at every
    ``interval``-th position, so a sample taken at index ``k`` reflects
    exactly ``k`` completed accesses.  :meth:`finalize` takes the tail
    sample and detaches the collector from the hierarchy."""

    def __init__(self, hierarchy: "CacheHierarchy",
                 params: TelemetryParams) -> None:
        self.hierarchy = hierarchy
        self.params = params
        self.access_index = -1
        self._categories = frozenset(params.event_categories())
        self._min_rank = _SEVERITY_RANK[params.min_severity]
        self.events: list[TelemetryEvent] = []
        self.dropped_events = 0

        self._gauge_names = self._discover_gauges(hierarchy)
        columns = (
            ["access_index"]
            + list(SIMSTATS_COUNTERS)
            + list(CORESTATS_COUNTERS)
            + self._gauge_names
        )
        self.series = TimeSeries(columns, params.ring_capacity)
        self._last_counters = self._snapshot_counters()
        self._finalized = False

    # -- binding -----------------------------------------------------------

    def bind(self) -> None:
        """Attach to the hierarchy so event-emission sites (scheme, CHAR,
        coherence paths) can reach the collector."""
        self.hierarchy.telemetry = self
        if self.hierarchy.char is not None:
            self.hierarchy.char.telemetry = self

    def unbind(self) -> None:
        self.hierarchy.telemetry = None
        if self.hierarchy.char is not None:
            self.hierarchy.char.telemetry = None

    # -- sampling ----------------------------------------------------------

    def _snapshot_counters(self) -> tuple:
        s = self.hierarchy.stats
        cores = s.cores
        return tuple(
            [getattr(s, name) for name in SIMSTATS_COUNTERS]
            + [
                sum(getattr(c, name) for c in cores)
                for name in CORESTATS_COUNTERS
            ]
        )

    def _discover_gauges(self, h: "CacheHierarchy") -> list:
        names = ["dir_occupancy"]
        scheme = h.scheme
        if getattr(scheme, "reloc", None) is not None:
            names.append("reloc_fifo_depth")
        tracker = getattr(scheme, "tracker", None)
        if tracker is not None:
            names += [f"empty_pv:{prop}" for prop in tracker.properties]
        if h.char is not None:
            names.append("char_d_min")
        return names

    def _gauges(self) -> list:
        h = self.hierarchy
        out = [h.directory.tracked_count()]
        scheme = h.scheme
        reloc = getattr(scheme, "reloc", None)
        if reloc is not None:
            out.append(
                max(len(st.pending_departures) for st in reloc._state)
            )
        tracker = getattr(scheme, "tracker", None)
        if tracker is not None:
            for prop in tracker.properties:
                out.append(
                    sum(
                        1
                        for bank_pvs in tracker.pvs
                        if bank_pvs[prop].empty
                    )
                )
        if h.char is not None:
            out.append(min(bs.d for bs in h.char.bank_state))
        return out

    def sample(self, access_index: int) -> None:
        """One row: counter deltas since the last sample, then gauges."""
        current = self._snapshot_counters()
        deltas = [a - b for a, b in zip(current, self._last_counters)]
        self._last_counters = current
        self.series.append(tuple([access_index] + deltas + self._gauges()))

    # -- event tracing -----------------------------------------------------

    def emit(self, kind: str, **data) -> None:
        """Record one event (filtered by category and severity)."""
        category, severity = EVENT_KINDS[kind]
        if category not in self._categories:
            return
        if _SEVERITY_RANK[severity] < self._min_rank:
            return
        if len(self.events) >= self.params.max_events:
            self.dropped_events += 1
            return
        self.events.append(TelemetryEvent(
            kind=kind,
            category=category,
            severity=severity,
            access_index=self.access_index,
            data=data,
        ))

    # -- finalisation ------------------------------------------------------

    def finalize(self, total_accesses: int) -> TelemetryResult:
        """Tail sample (so delta sums match end-of-run counters), detach,
        and return the picklable result."""
        if not self._finalized:
            self._finalized = True
            self.sample(total_accesses)
            self.unbind()
        return TelemetryResult(
            params=self.params,
            series=self.series,
            events=self.events,
            dropped_events=self.dropped_events,
        )


# ---------------------------------------------------------------------------
# Run progress heartbeats (consumed by repro.sim.parallel.run_many)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamProgress:
    """One chunk-boundary heartbeat from a streamed/checkpointed run.

    Emitted by :meth:`repro.sim.engine.Simulation.run` through its
    ``progress`` callback every ``checkpoint_every`` accesses.  ``chunk``
    is the boundary index just completed (``accesses_done //
    checkpoint_every``); ``checkpointed`` says whether state was saved
    at this boundary.  ``label`` names the workload and ``engine`` the
    hierarchy engine (``"object"``/``"fast"``) so interleaved heartbeat
    lines from concurrent runs stay attributable."""

    accesses_done: int
    total_accesses: int
    chunk: int
    chunks: int
    checkpointed: bool
    label: str = ""
    engine: str = ""

    @property
    def fraction(self) -> float:
        return (
            self.accesses_done / self.total_accesses
            if self.total_accesses else 1.0
        )


@dataclass(frozen=True)
class RunProgress:
    """One heartbeat from :func:`repro.sim.parallel.run_many`.

    ``source`` says where the just-resolved recipe came from (``"memo"``,
    ``"disk"`` or ``"run"``); the ``from_*``/``simulated`` counters
    accumulate that provenance.  ``accesses_per_s`` covers freshly
    simulated runs only (cache hits would inflate it), and ``eta_s`` is
    None until at least one fresh simulation has completed.  ``key`` is
    the resolved recipe's full cache key (``short_key`` truncates it for
    display) and ``engine`` the configured hierarchy engine, so
    interleaved heartbeats from different fleets stay attributable and
    cross-reference the run ledger."""

    completed: int
    total: int
    label: str
    source: str
    from_memo: int
    from_disk: int
    simulated: int
    elapsed_s: float
    accesses: int
    accesses_per_s: float
    eta_s: Optional[float]
    key: str = ""
    engine: str = ""

    @property
    def short_key(self) -> str:
        """First 8 hex digits of the recipe key (``"--------"`` when
        unknown) -- same abbreviation ``repro obs ls`` prints."""
        return self.key[:8] if self.key else "--------"


class ProgressTracker:
    """Builds successive :class:`RunProgress` heartbeats for one
    ``run_many`` invocation."""

    def __init__(self, total: int, jobs: int = 1) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.completed = 0
        self.from_memo = 0
        self.from_disk = 0
        self.simulated = 0
        self.accesses = 0
        # Wall-clock reads below are heartbeat-only: they feed the
        # ProgressPrinter line, never a SimResult, so the result cache
        # stays deterministic.
        self._t0 = time.perf_counter()  # repro-lint: ignore[determinism]
        self._sim_t0: Optional[float] = None
        self._sim_elapsed = 0.0

    def advance(self, label: str, source: str, result,
                key: str = "", engine: str = "") -> RunProgress:
        self.completed += 1
        if source == "memo":
            self.from_memo += 1
        elif source == "disk":
            self.from_disk += 1
        else:
            if self._sim_t0 is None:
                self._sim_t0 = self._t0
            self.simulated += 1
            self._sim_elapsed = (
                time.perf_counter()  # repro-lint: ignore[determinism]
                - self._sim_t0
            )
            if result is not None:
                self.accesses += result.stats.total_accesses
        elapsed = (
            time.perf_counter() - self._t0  # repro-lint: ignore[determinism]
        )
        rate = (
            self.accesses / self._sim_elapsed
            if self.simulated and self._sim_elapsed > 0
            else 0.0
        )
        remaining = self.total - self.completed
        eta = None
        if self.simulated and self._sim_elapsed > 0:
            per_run = self._sim_elapsed / self.simulated
            # Pessimistic: assume every remaining recipe is a cache miss.
            eta = remaining * per_run / self.jobs
        return RunProgress(
            completed=self.completed,
            total=self.total,
            label=label,
            source=source,
            from_memo=self.from_memo,
            from_disk=self.from_disk,
            simulated=self.simulated,
            elapsed_s=elapsed,
            accesses=self.accesses,
            accesses_per_s=rate,
            eta_s=eta,
            key=key,
            engine=engine,
        )


class ProgressPrinter:
    """Renders heartbeats as a single self-overwriting status line.

    The default stream is stderr so progress never corrupts piped table
    output.  Call the instance with each :class:`RunProgress`; call
    :meth:`done` once at the end to terminate the line."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._last_len = 0

    def __call__(self, p: RunProgress) -> None:
        pct = 100.0 * p.completed / p.total if p.total else 100.0
        parts = [
            f"[{p.completed}/{p.total}] {pct:3.0f}%",
            f"sim {p.simulated}",
            f"memo {p.from_memo}",
            f"disk {p.from_disk}",
        ]
        if p.accesses_per_s:
            parts.append(f"{p.accesses_per_s / 1000.0:.0f}k acc/s")
        if p.eta_s is not None:
            parts.append(f"eta {_fmt_seconds(p.eta_s)}")
        # Identify the run that just resolved: short recipe key + engine
        # keep interleaved fleets tellable-apart in captured logs.
        tail = p.short_key
        if p.engine:
            tail += f"/{p.engine}"
        if p.label:
            tail += f" {p.label}"
        parts.append(tail)
        line = " | ".join(parts)
        pad = max(0, self._last_len - len(line))
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._last_len = len(line)

    def done(self) -> None:
        if self._last_len:
            self.stream.write("\n")
            self.stream.flush()
            self._last_len = 0


def _fmt_seconds(s: float) -> str:
    if s >= 3600:
        return f"{s / 3600:.1f}h"
    if s >= 60:
        return f"{int(s) // 60}m{int(s) % 60:02d}s"
    return f"{s:.0f}s"
