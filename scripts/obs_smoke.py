#!/usr/bin/env python
"""CI observability smoke: exercise the ledger end to end.

Runs a small recipe grid on both engines (fresh, then cache-resolved),
then asserts the observability stack's core guarantees:

* every resolution appended exactly one ledger record, with the right
  provenance (``run`` then ``memo``) and a non-zero rate on fresh runs;
* records round-trip bit-identically through their canonical JSON line
  form *and* through the Prometheus exposition (floats use shortest
  round-trip formatting);
* every fresh record carries its run's phase times (a timed access
  loop, a phase sum within the record's wall time), every cache hit
  carries none, and the exported ``repro_phase_seconds_total`` is the
  sum over the fresh records;
* ``run_regress`` over the fresh ledger produces a report without
  errors (the CI regression *gate* is a separate ``repro obs regress
  --check`` invocation against the committed BENCH history);
* a ledger line with the right keys and one wrong-typed value is
  skipped, not fatal: ``repro obs export`` and ``repro obs top`` still
  succeed, and the export counts exactly one more skipped line.

Exit 0 on success; any assertion failure is a non-zero exit.

Usage::

    REPRO_CACHE_DIR=$(mktemp -d) python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.obs.ledger import (  # noqa: E402
    LedgerRecord,
    ledger_path,
    read_ledger,
)
from repro.obs.registry import (  # noqa: E402
    parse_prometheus,
    registry_from_ledger,
)
from repro.obs.regress import run_regress  # noqa: E402
from repro.params import (  # noqa: E402
    CacheGeometry,
    DirectoryGeometry,
    LLCGeometry,
    SystemConfig,
)
from repro.sim.parallel import RunRecipe, run_many  # noqa: E402
from repro.sim.trace import (  # noqa: E402
    CoreTrace,
    TraceRecord,
    Workload,
)


def small_config(engine: str = "object") -> SystemConfig:
    return SystemConfig(
        cores=2,
        l1=CacheGeometry(sets=1, ways=2),
        l2=CacheGeometry(sets=2, ways=4),
        llc=LLCGeometry(banks=2, sets_per_bank=4, ways=4),
        directory=DirectoryGeometry(sets=2, ways=8),
        engine=engine,
    )


def small_workload(k: int = 0, length: int = 600) -> Workload:
    traces = [
        CoreTrace(
            [TraceRecord(1, (c + 1) * 256 + (i * (k + 2)) % 48,
                         i % 5 == 0, i % 4) for i in range(length)]
        )
        for c in range(2)
    ]
    return Workload(traces, f"smoke-wl{k}")


def repro_cli(*args: str) -> None:
    """Run ``python -m repro ARGS`` against this checkout; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    before = read_ledger()
    start = len(before)

    # -- a small grid on both engines, fresh then cache-resolved -------
    recipes = [
        RunRecipe(small_workload(k), scheme, small_config(engine))
        for engine in ("object", "fast")
        for scheme in ("inclusive", "ziv:notinprc")
        for k in range(2)
    ]
    results = run_many(recipes)
    rerun = run_many(recipes)
    assert len(results) == len(rerun) == len(recipes)

    records = read_ledger()[start:]
    assert len(records) == 2 * len(recipes), (
        f"expected {2 * len(recipes)} ledger records, got {len(records)}"
    )
    fresh = records[: len(recipes)]
    cached = records[len(recipes):]
    assert all(r.source == "run" and not r.cache_hit for r in fresh)
    assert all(r.source == "memo" and r.cache_hit for r in cached)
    assert all(r.wall_s > 0 and r.accesses_per_s > 0 for r in fresh)
    assert {r.engine for r in fresh} == {"object", "fast"}
    assert {r.recipe_key for r in fresh} == {r.key() for r in recipes}

    # -- JSON-line round trip is bit-identical --------------------------
    for rec in records:
        line = rec.to_json_line()
        assert LedgerRecord.from_json_line(line) == rec
        assert LedgerRecord.from_json_line(line).to_json_line() == line

    # -- Prometheus exposition round trip is exact ----------------------
    registry = registry_from_ledger(records)
    parsed = parse_prometheus(registry.to_prometheus())
    for engine in ("object", "fast"):
        best = max(
            r.accesses_per_s for r in fresh if r.engine == engine
        )
        key = ("repro_best_accesses_per_s", (("engine", engine),))
        assert parsed[key] == best, (engine, parsed[key], best)
    assert parsed[("repro_ledger_records", ())] == len(records)

    # -- phases: fresh runs carry theirs, hits none, export sums fresh --
    expected: dict = {}
    for rec in fresh:
        assert rec.phases.get("access_loop", 0.0) > 0.0, rec.phases
        assert sum(rec.phases.values()) <= rec.wall_s, rec
        for phase, seconds in rec.phases.items():
            key = (("engine", rec.engine), ("phase", phase))
            expected[key] = expected.get(key, 0.0) + seconds
    assert all(r.phases == {} for r in cached)
    exported_phases = {
        labels: value for (name, labels), value in parsed.items()
        if name == "repro_phase_seconds_total"
    }
    assert exported_phases == expected, (exported_phases, expected)

    # -- the regress machinery runs clean over what we just recorded ----
    report = run_regress(ledger_records=read_ledger())
    assert not report.errors, report.errors

    # -- a wrong-typed line is skipped and counted, never fatal ---------
    bad = records[0].to_dict()
    bad["phases"] = 5
    with open(ledger_path(), "a") as fh:
        fh.write(json.dumps(bad, sort_keys=True) + "\n")
    repro_cli("obs", "top")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "metrics.prom"
        repro_cli("obs", "export", "--format", "prometheus",
                  "--out", str(out))
        exported = parse_prometheus(out.read_text())
    skipped = exported[("repro_ledger_skipped_lines", ())] - before.skipped
    assert skipped == 1, f"export counts {skipped} new skipped lines"
    assert exported[("repro_ledger_records", ())] == len(read_ledger())

    print(
        f"obs smoke: {len(records)} ledger record(s) in "
        f"{ledger_path()}, round-trips exact, phase times on fresh runs "
        f"only, a wrong-typed line skipped and counted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
