"""Metrics registry + Prometheus/JSON exporters over the run ledger.

Aggregates :class:`~repro.obs.ledger.LedgerRecord` history (and,
optionally, live :class:`~repro.sim.telemetry.RunProgress` heartbeats)
into named, labelled metrics, then exports them in Prometheus
text-exposition format or JSON.  A future simulation service scrapes
these unchanged; today the ``repro obs export`` CLI serves them to
files/stdout.

Export round-trip is exact: integer samples are written as integers,
float samples via ``repr`` (Python's shortest-round-trip formatting),
so ``parse_prometheus(registry.to_prometheus())`` reproduces every
value bit-identically -- asserted by the test suite and the obs-smoke
CI job.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.obs.ledger import ledger_path, parse_ledger_lines

_VALID_KINDS = ("counter", "gauge")

Labels = "tuple[tuple[str, str], ...]"


def _labels(items: Optional[dict] = None) -> tuple:
    return tuple(sorted((items or {}).items()))


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class Metric:
    """One named metric: kind, help text, and labelled samples."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: dict = {}  # labels tuple -> numeric value

    def inc(self, labels: tuple, amount: Any) -> None:
        self.samples[labels] = self.samples.get(labels, 0) + amount

    def set(self, labels: tuple, value: Any) -> None:
        self.samples[labels] = value


class MetricsRegistry:
    """A small, dependency-free registry in the Prometheus data model."""

    def __init__(self) -> None:
        self._metrics: dict = {}

    def counter(self, name: str, help_text: str) -> Metric:
        return self._declare(name, "counter", help_text)

    def gauge(self, name: str, help_text: str) -> Metric:
        return self._declare(name, "gauge", help_text)

    def _declare(self, name: str, kind: str, help_text: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Metric(name, kind, help_text)
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already declared as {metric.kind}"
            )
        return metric

    def inc(self, name: str, labels: Optional[dict] = None,
            amount: Any = 1) -> None:
        self._metrics[name].inc(_labels(labels), amount)

    def set(self, name: str, labels: Optional[dict] = None,
            value: Any = 0) -> None:
        self._metrics[name].set(_labels(labels), value)

    def copy(self) -> "MetricsRegistry":
        """An independent registry with the same metrics and samples."""
        twin = MetricsRegistry()
        for name, metric in self._metrics.items():
            twin._declare(name, metric.kind, metric.help).samples.update(
                metric.samples
            )
        return twin

    def value(self, name: str, labels: Optional[dict] = None) -> Any:
        """One sample's current value (None when never observed)."""
        metric = self._metrics.get(name)
        if metric is None:
            return None
        return metric.samples.get(_labels(labels))

    # -- live fleet progress ----------------------------------------------

    def observe_progress(self, p: Any) -> None:
        """Fold one :class:`~repro.sim.telemetry.RunProgress` heartbeat
        into the live fleet gauges (idempotent per heartbeat: gauges are
        set, not incremented)."""
        fleet = {}  # single unlabelled series
        self.gauge("repro_fleet_completed",
                   "recipes resolved so far in the current run_many")
        self.gauge("repro_fleet_total",
                   "recipes submitted to the current run_many")
        self.gauge("repro_fleet_simulated",
                   "fresh simulations among the resolved recipes")
        self.gauge("repro_fleet_accesses_per_s",
                   "aggregate simulated accesses/second (fresh runs)")
        self.set("repro_fleet_completed", fleet, p.completed)
        self.set("repro_fleet_total", fleet, p.total)
        self.set("repro_fleet_simulated", fleet, p.simulated)
        self.set("repro_fleet_accesses_per_s", fleet, p.accesses_per_s)

    # -- exporters ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for labels in sorted(metric.samples):
                value = metric.samples[labels]
                if labels:
                    rendered = ",".join(
                        f'{k}="{v}"' for k, v in labels
                    )
                    series = f"{name}{{{rendered}}}"
                else:
                    series = name
                lines.append(f"{series} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON export mirroring the Prometheus series set exactly."""
        out = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": [
                    {"labels": dict(labels), "value": value}
                    for labels, value in sorted(metric.samples.items())
                ],
            }
        return json.dumps(out, sort_keys=True, indent=2)


def parse_prometheus(text: str) -> dict:
    """Parse text exposition back to ``{(name, labels): value}``.

    The inverse of :meth:`MetricsRegistry.to_prometheus` for the subset
    that exporter emits; used by the round-trip tests and the smoke
    job."""
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        if "{" in series:
            name, _, rest = series.partition("{")
            body = rest.rstrip("}")
            labels = []
            for pair in body.split(","):
                if not pair:
                    continue
                key, _, quoted = pair.partition("=")
                labels.append((key, quoted.strip('"')))
            key_t = (name, tuple(sorted(labels)))
        else:
            key_t = (series, ())
        value = float(raw)
        out[key_t] = int(value) if value.is_integer() else value
    return out


def registry_from_ledger(
    records: Iterable, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Aggregate ledger records into the standard fleet metrics.

    ``registry`` (optional) aggregates into an existing registry
    instead of a fresh one.  Folding more records into the registry
    this returned continues the aggregate: the result is byte-equal to
    one call over all the records (:class:`LedgerAggregate` keeps the
    simulation service's ``/metrics`` current this way).  Records from
    :func:`~repro.obs.ledger.read_ledger` or
    :func:`~repro.obs.ledger.parse_ledger_lines` also carry the count of
    ledger lines skipped as unparsable, exported as
    ``repro_ledger_skipped_lines``."""
    reg = registry if registry is not None else MetricsRegistry()
    reg.counter("repro_runs_total",
                "completed runs by resolution source and engine")
    reg.counter("repro_simulated_accesses_total",
                "accesses simulated by fresh runs, by engine")
    reg.counter("repro_wall_seconds_total",
                "wall time spent in fresh simulations, by engine")
    reg.counter("repro_audit_violations_total",
                "invariant-audit violations recorded, by engine")
    reg.counter("repro_telemetry_events_total",
                "telemetry events traced, by engine")
    reg.counter("repro_phase_seconds_total",
                "wall seconds of fresh runs, by engine and phase")
    reg.gauge("repro_last_accesses_per_s",
              "throughput of the most recent fresh run, by engine")
    reg.gauge("repro_best_accesses_per_s",
              "best fresh-run throughput on record, by engine")
    reg.gauge("repro_ledger_records",
              "ledger records aggregated into this export")
    reg.gauge("repro_ledger_skipped_lines",
              "ledger lines left out of this export as unparsable")
    count = 0
    for rec in records:
        count += 1
        engine = {"engine": rec.engine}
        reg.inc("repro_runs_total",
                {"engine": rec.engine, "source": rec.source})
        if rec.audit_violations:
            reg.inc("repro_audit_violations_total", engine,
                    rec.audit_violations)
        if rec.telemetry_events:
            reg.inc("repro_telemetry_events_total", engine,
                    rec.telemetry_events)
        if rec.cache_hit:
            continue
        reg.inc("repro_simulated_accesses_total", engine, rec.accesses)
        reg.inc("repro_wall_seconds_total", engine, rec.wall_s)
        for phase, seconds in sorted(rec.phases.items()):
            reg.inc("repro_phase_seconds_total",
                    {"engine": rec.engine, "phase": phase}, seconds)
        if rec.accesses_per_s:
            reg.set("repro_last_accesses_per_s", engine,
                    rec.accesses_per_s)
            best = reg.value("repro_best_accesses_per_s", engine)
            if best is None or rec.accesses_per_s > best:
                reg.set("repro_best_accesses_per_s", engine,
                        rec.accesses_per_s)
    reg.inc("repro_ledger_records", None, count)
    reg.inc("repro_ledger_skipped_lines", None,
            getattr(records, "skipped", 0))
    return reg


class LedgerAggregate:
    """The ledger's fleet metrics, kept current by folding in only the
    lines appended since the last look.

    :meth:`snapshot` equals ``registry_from_ledger(read_ledger())`` at
    the moment it is taken.  The aggregate covers the ledger up to the
    end of its last complete line and keeps that line's bytes; when
    they are no longer there (the file shrank, was truncated or
    replaced, or the ledger moved) it is rebuilt from zero.  A final
    line without its newline, a torn or unfinished write, waits for
    it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._path: Optional[Path] = None  # repro-lint: guarded-by[_lock]
        self._offset = 0  # repro-lint: guarded-by[_lock] (bytes folded)
        self._last = b""  # repro-lint: guarded-by[_lock] (last line folded)
        self._registry = registry_from_ledger(())  # repro-lint: guarded-by[_lock]

    def snapshot(self) -> MetricsRegistry:
        """A registry of the ledger's metrics as of now, for the caller
        to add to and export."""
        path = ledger_path()
        with self._lock:
            data = _read_from(path, self._offset - len(self._last))
            if path != self._path or not data.startswith(self._last):
                self._path, self._offset, self._last = path, 0, b""
                self._registry = registry_from_ledger(())
                data = _read_from(path, 0)
            end = data.rfind(b"\n") + 1
            if end > len(self._last):
                new = data[len(self._last):end]
                # A fold that raises (a line of the wrong shape) leaves
                # the aggregate to be rebuilt from zero next time.
                self._path = None
                registry_from_ledger(
                    parse_ledger_lines(new.decode(errors="replace")),
                    registry=self._registry)
                self._path = path
                self._offset += len(new)
                self._last = data[data.rfind(b"\n", 0, end - 1) + 1:end]
            return self._registry.copy()


def _read_from(path: Path, offset: int) -> bytes:
    """The file's bytes from ``offset`` on (none when it is unreadable,
    as :func:`~repro.obs.ledger.iter_ledger` reads no records then)."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            return fh.read()
    except OSError:
        return b""
