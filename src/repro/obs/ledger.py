"""The run ledger: an append-only JSONL provenance record of every run.

Every completed simulation -- a fresh execution, a memo hit, a disk-
cache hit, a direct :func:`~repro.sim.engine.run_workload` call --
appends one :class:`LedgerRecord` line to ``<cache_dir>/ledger.jsonl``.
The ledger is the fleet's flight recorder: what ran, under which recipe
key and configuration digest, on which engine, how fast, whether the
invariant auditor complained, and where the result came from.  The
``repro obs`` CLI, the metrics registry and the perf-regression checker
all consume it.

Properties:

* **Atomic appends.**  Each record is one ``os.write`` on an
  ``O_APPEND`` descriptor, so concurrent writers (``run_many`` worker
  merges racing a second process) interleave whole lines, never
  fragments.
* **Never breaks a run.**  Append failures (read-only cache dir, full
  disk) are swallowed; the ledger is observability, not a dependency.
* **Byte-stable round-trip.**  ``to_json_line`` serialises with sorted
  keys; ``from_json_line(line).to_json_line() == line`` for any line
  the writer produced, and :meth:`LedgerRecord.from_dict` validates
  keys both ways in the ``config_io`` style and each value against its
  field's annotation.  Readers skip a line that fails and count it
  (:attr:`LedgerRecords.skipped`), so one bad line never breaks an
  export.  A version-1 line (written before phase timing was always
  on) still parses: its ``profile_phases`` is read as ``phases``.
* **Opt-out.**  ``REPRO_LEDGER=off`` disables appends; reads are
  unaffected.  The path rides ``REPRO_CACHE_DIR``, so test isolation
  of the result cache isolates the ledger for free.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.params import ConfigError

#: Schema version embedded in every record; bump on field changes so
#: readers can skip (or upgrade) foreign-era lines explicitly.
#: 2: ``profile_phases`` (filled only by the opt-in profiler) became
#: ``phases`` (filled by every fresh run).
LEDGER_VERSION = 2

_LEDGER_NAME = "ledger.jsonl"


def ledger_enabled() -> bool:
    """Appends are on unless REPRO_LEDGER is off/0/false/no."""
    return os.environ.get("REPRO_LEDGER", "on").strip().lower() not in (
        "off", "0", "false", "no",
    )


def ledger_path() -> Path:
    """The ledger lives next to the result cache it describes."""
    from repro.sim.parallel import cache_dir

    return cache_dir() / _LEDGER_NAME


def config_digest(config: Any) -> str:
    """Stable content hash of a :class:`~repro.params.SystemConfig`
    (sha256 over the sorted ``config_io`` dict form)."""
    from repro.config_io import _config_json

    return hashlib.sha256(_config_json(config).encode()).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One completed run, as recorded in the ledger.

    ``source`` is the resolution provenance (``"run"`` fresh under
    ``run_many``, ``"memo"``/``"disk"`` cache hits,
    ``"direct"`` for a plain ``run_workload`` call); ``cache_hit``
    folds that to a boolean.  ``wall_s``/``accesses_per_s`` are zero
    and ``phases`` is empty for cache hits (the stored result carries
    no new timing).  No field has a default, so a writer that misses
    one raises ``TypeError``; ``tests/test_docs.py`` checks the field
    table in ``docs/OBSERVABILITY.md`` against this dataclass.
    """

    version: int
    ts: float
    recipe_key: str
    workload: str
    workload_fingerprint: str
    scheme: str
    policy: str
    scheduling: str
    engine: str
    config_digest: str
    source: str
    cache_hit: bool
    trace_path: str
    resumed_from: str
    wall_s: float
    accesses: int
    accesses_per_s: float
    cycles: int
    audit_violations: int
    telemetry_samples: int
    telemetry_events: int
    phases: dict[str, float]
    host_cpus: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerRecord":
        if not isinstance(data, dict):
            raise ConfigError("ledger record must be a JSON object")
        if data.get("version") == 1 and "profile_phases" in data:
            data = dict(data)
            data["phases"] = data.pop("profile_phases")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(
                f"unknown ledger-record keys: {sorted(unknown)}"
            )
        missing = names - set(data)
        if missing:
            raise ConfigError(
                f"ledger record needs keys: {sorted(missing)}"
            )
        for f in dataclasses.fields(cls):
            value = data[f.name]
            if not _ADMITS[f.type](value):
                raise ConfigError(
                    f"ledger field {f.name!r} must be {f.type}, got "
                    f"{type(value).__name__}"
                )
        return cls(**data)

    def to_json_line(self) -> str:
        """Canonical single-line JSON form (sorted keys, no newline):
        ``json.dumps(self.to_dict(), sort_keys=True)``, encoded from the
        fields themselves.  A frozen record's ``__dict__`` holds exactly
        its fields, so no copy is made."""
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "LedgerRecord":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad ledger line: {exc}") from exc
        return cls.from_dict(data)

    @property
    def short_key(self) -> str:
        return self.recipe_key[:8] if self.recipe_key else "--------"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: The values each :class:`LedgerRecord` annotation admits: a bool is
#: not an int, and an int may stand for a float.
_ADMITS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "dict[str, float]": lambda v: isinstance(v, dict) and all(
        isinstance(k, str) and _is_number(x) for k, x in v.items()
    ),
}


@functools.lru_cache(maxsize=None)
def _host_cpus() -> int:
    """The host's CPU count, read once per process."""
    return os.cpu_count() or 1


def record_from_result(
    *,
    recipe_key: str,
    result: Any,
    source: str,
    wall_s: float,
    engine: str,
    config_digest: str,
    workload_fingerprint: str = "",
    scheduling: str = "timing",
    trace_path: str = "",
    resumed_from: str = "",
) -> LedgerRecord:
    """Build the ledger record for one completed run.

    ``config_digest`` is :func:`config_digest` of the run's
    configuration, which a caller that records one recipe many times
    computes once.  Every :class:`LedgerRecord` field is passed as an
    explicit keyword below; the dataclass has no defaults, so a new
    field cannot be added without deciding what this writer records
    for it.
    """
    audit = result.audit
    telemetry = result.telemetry
    accesses = result.stats.total_accesses
    fresh = source in ("run", "direct")
    rate = (
        accesses / wall_s if fresh and wall_s > 0 and accesses else 0.0
    )
    return LedgerRecord(
        version=LEDGER_VERSION,
        # Provenance timestamp: when this resolution happened, by
        # design run-dependent; records are ledger-only, never cached.
        ts=time.time(),  # repro-lint: ignore[determinism]
        recipe_key=recipe_key,
        workload=result.workload,
        workload_fingerprint=workload_fingerprint,
        scheme=result.scheme,
        policy=result.policy,
        scheduling=scheduling,
        engine=engine,
        config_digest=config_digest,
        source=source,
        cache_hit=not fresh,
        trace_path=trace_path,
        resumed_from=resumed_from,
        wall_s=wall_s if fresh else 0.0,
        accesses=accesses,
        accesses_per_s=rate,
        cycles=result.cycles,
        audit_violations=(
            len(audit.violations) if audit is not None else 0
        ),
        telemetry_samples=(
            len(telemetry.series) if telemetry is not None else 0
        ),
        telemetry_events=(
            len(telemetry.events) if telemetry is not None else 0
        ),
        phases=dict(result.phases) if fresh else {},
        host_cpus=_host_cpus(),
    )


def append_record(
    record: LedgerRecord, path: Optional[Path] = None
) -> bool:
    """Atomically append one record; returns whether a line was written.

    A single ``write(2)`` on an ``O_APPEND`` descriptor appends the
    whole line atomically with respect to concurrent appenders.  The
    directory is created only when the open finds it missing.  Any
    OS-level failure is swallowed: the ledger must never fail a run.
    """
    if not ledger_enabled():
        return False
    target = Path(path) if path is not None else ledger_path()
    line = record.to_json_line() + "\n"
    try:
        try:
            fd = os.open(target, os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                         0o644)
        except FileNotFoundError:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(target, os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                         0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
    except OSError:
        return False
    return True


class LedgerRecords(list):
    """Ledger records, oldest-first, plus ``skipped``: how many complete
    lines did not parse as records and were left out."""

    skipped = 0


def iter_ledger(
    path: Optional[Path] = None, strict: bool = False
) -> Iterator[LedgerRecord]:
    """Yield records oldest-first (see :func:`read_ledger`)."""
    yield from read_ledger(path, strict=strict)


def parse_ledger_lines(text: str, strict: bool = False) -> LedgerRecords:
    """The records of ledger text.  A line that does not parse raises
    :class:`ConfigError` when ``strict``; otherwise it is skipped and,
    unless it is a final line still waiting for its newline (an append
    in progress, or torn by a crash), counted in ``skipped``."""
    out = LedgerRecords()
    lines = text.splitlines()
    complete = text.endswith("\n")
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            out.append(LedgerRecord.from_json_line(line))
        except ConfigError:
            if strict:
                raise
            if complete or n < len(lines):
                out.skipped += 1
    return out


def read_ledger(
    path: Optional[Path] = None, strict: bool = False
) -> LedgerRecords:
    """All ledger records, oldest-first.  Unparsable lines are skipped
    unless ``strict``: a torn final line from a crashed writer, or one
    hand-edited line, must not brick the whole ledger."""
    target = Path(path) if path is not None else ledger_path()
    try:
        # A line that is not UTF-8 decodes to replacement characters,
        # fails to parse and is counted like any other bad line.
        text = target.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return LedgerRecords()
    return parse_ledger_lines(text, strict=strict)
