"""``repro obs`` -- fleet observability from the command line.

Subactions::

    obs ls       recent ledger records, one line each
    obs show     full dump of one record (by recipe-key prefix)
    obs top      aggregate dashboard: throughput by engine, time sinks
    obs diff     field-by-field comparison of two records
    obs export   metrics registry as Prometheus text or JSON
    obs regress  compare throughput against BENCH history + the ledger

``obs regress`` exits 1 on any regression past the threshold;
``--check`` (the CI gate) additionally fails when *nothing* was
comparable, so the gate can never pass vacuously.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from typing import Optional


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="obs_action", required=True)

    p = sub.add_parser("ls", help="list ledger records, newest last")
    p.add_argument("--limit", type=int, default=20,
                   help="show at most the newest N records (default 20)")
    p.add_argument("--ledger", default=None, metavar="FILE.jsonl",
                   help="ledger path (default: <cache_dir>/ledger.jsonl)")

    p = sub.add_parser("show", help="dump one ledger record as JSON")
    p.add_argument("key", help="recipe-key prefix (>= 4 hex chars)")
    p.add_argument("--ledger", default=None, metavar="FILE.jsonl")

    p = sub.add_parser("top", help="aggregate throughput dashboard")
    p.add_argument("--limit", type=int, default=10,
                   help="rows per section (default 10)")
    p.add_argument("--ledger", default=None, metavar="FILE.jsonl")

    p = sub.add_parser("diff", help="compare two ledger records")
    p.add_argument("key_a", help="recipe-key prefix of the first record")
    p.add_argument("key_b", help="recipe-key prefix of the second")
    p.add_argument("--ledger", default=None, metavar="FILE.jsonl")

    p = sub.add_parser("export", help="export the metrics registry")
    p.add_argument("--format", default="prometheus",
                   choices=("prometheus", "json"))
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write here instead of stdout")
    p.add_argument("--ledger", default=None, metavar="FILE.jsonl")

    p = sub.add_parser(
        "regress",
        help="compare current throughput against BENCH_*.json history "
             "and prior ledger entries",
    )
    p.add_argument("--bench", nargs="*", default=None, metavar="GLOB",
                   help="bench-history files/globs "
                        "(default: BENCH_*.json)")
    p.add_argument("--current", default=None, metavar="FILE.json",
                   help="freshly produced bench report to gate against "
                        "the history (default: gate the history's own "
                        "newest report per family)")
    p.add_argument("--threshold", type=float, default=None,
                   help="regression threshold as a fraction "
                        "(default 0.2 = 20%%)")
    p.add_argument("--cpus", type=int, default=None,
                   help="override the host cpu count used to match "
                        "ledger entries (testing)")
    p.add_argument("--min-accesses", type=int, default=None,
                   help="ignore ledger runs smaller than this "
                        "(default 20000)")
    p.add_argument("--check", action="store_true",
                   help="CI gate: also exit 1 when no comparison was "
                        "possible (a vacuous gate must not pass)")
    p.add_argument("--ledger", default=None, metavar="FILE.jsonl")


def _records(args) -> list:
    from repro.obs.ledger import read_ledger

    return read_ledger(args.ledger)


def _match_key(records: list, prefix: str) -> Optional[object]:
    if len(prefix) < 4:
        print(f"key prefix {prefix!r} too short (>= 4 chars)",
              file=sys.stderr)
        return None
    hits = [r for r in records if r.recipe_key.startswith(prefix)]
    if not hits:
        print(f"no ledger record matches key prefix {prefix!r}",
              file=sys.stderr)
        return None
    # Newest record wins when one recipe ran repeatedly.
    return hits[-1]


def _bar(value: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return ""
    filled = int(round(width * value / peak))
    return "#" * max(0, min(width, filled))


def _ls_line(rec) -> str:
    rate = (
        f"{rec.accesses_per_s / 1000.0:8.0f}k/s" if rec.accesses_per_s
        else f"{'cached':>10s}"
    )
    return (
        f"{rec.short_key} {rec.engine:6s} {rec.source:6s} "
        f"{rec.scheme}/{rec.policy:8s} {rec.workload:20.20s} "
        f"{rec.accesses:>9d} acc {rate} wall {rec.wall_s:7.3f}s"
    )


def _cmd_ls(args) -> int:
    records = _records(args)
    if not records:
        print("ledger is empty")
        return 0
    for rec in records[-max(0, args.limit):]:
        print(_ls_line(rec))
    print(f"{len(records)} record(s) total")
    return 0


def _cmd_show(args) -> int:
    rec = _match_key(_records(args), args.key)
    if rec is None:
        return 1
    print(json.dumps(rec.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_top(args) -> int:
    records = _records(args)
    if not records:
        print("ledger is empty")
        return 0
    fresh = [r for r in records if not r.cache_hit and r.accesses_per_s]
    print(f"ledger: {len(records)} record(s), {len(fresh)} fresh "
          f"timed run(s)")
    best: dict = {}
    for rec in fresh:
        if (rec.engine not in best
                or rec.accesses_per_s > best[rec.engine].accesses_per_s):
            best[rec.engine] = rec
    if best:
        peak = max(r.accesses_per_s for r in best.values())
        print("\nbest throughput by engine:")
        for engine in sorted(best):
            rec = best[engine]
            print(f"  {engine:6s} {rec.accesses_per_s / 1000.0:8.0f}k/s "
                  f"{_bar(rec.accesses_per_s, peak)}  ({rec.short_key} "
                  f"{rec.scheme}/{rec.policy})")
    sinks = sorted(fresh, key=lambda r: -r.wall_s)[:max(0, args.limit)]
    if sinks:
        peak_wall = sinks[0].wall_s
        print("\nbiggest time sinks (fresh runs):")
        for rec in sinks:
            print(f"  {rec.wall_s:8.3f}s {_bar(rec.wall_s, peak_wall)}  "
                  f"{rec.short_key} {rec.engine} "
                  f"{rec.scheme}/{rec.policy} {rec.workload}")
    phases: dict = {}
    for rec in fresh:
        for phase, seconds in rec.phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    if phases:
        peak_phase = max(phases.values())
        print("\nphase time (all fresh runs):")
        for phase in sorted(phases, key=lambda p: -phases[p]):
            print(f"  {phase:12s} {phases[phase]:8.3f}s "
                  f"{_bar(phases[phase], peak_phase)}")
    return 0


def _cmd_diff(args) -> int:
    records = _records(args)
    rec_a = _match_key(records, args.key_a)
    rec_b = _match_key(records, args.key_b)
    if rec_a is None or rec_b is None:
        return 1
    dict_a = rec_a.to_dict()
    dict_b = rec_b.to_dict()
    same = True
    for field in sorted(dict_a):
        va, vb = dict_a[field], dict_b[field]
        if va != vb:
            same = False
            print(f"{field:22s} {va!r:>24} | {vb!r}")
    if same:
        print("records are identical")
    return 0


def _cmd_export(args) -> int:
    from repro.obs.registry import registry_from_ledger

    registry = registry_from_ledger(_records(args))
    text = (
        registry.to_prometheus() if args.format == "prometheus"
        else registry.to_json()
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_regress(args) -> int:
    from repro.obs.regress import (
        DEFAULT_THRESHOLD,
        MIN_LEDGER_ACCESSES,
        load_bench_file,
        run_regress,
    )

    patterns = args.bench if args.bench is not None else ["BENCH_*.json"]
    bench_paths: list = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        bench_paths.extend(matches if matches else [pattern])
    current = None
    if args.current:
        try:
            current = load_bench_file(args.current)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read --current: {exc}", file=sys.stderr)
            return 2
    report = run_regress(
        ledger_records=_records(args),
        bench_paths=bench_paths,
        current_bench=current,
        threshold=(
            args.threshold if args.threshold is not None
            else DEFAULT_THRESHOLD
        ),
        host_cpus=args.cpus,
        min_accesses=(
            args.min_accesses if args.min_accesses is not None
            else MIN_LEDGER_ACCESSES
        ),
    )
    print(report.describe())
    return report.exit_code(check=args.check)


def run_obs(args) -> int:
    handler = {
        "ls": _cmd_ls,
        "show": _cmd_show,
        "top": _cmd_top,
        "diff": _cmd_diff,
        "export": _cmd_export,
        "regress": _cmd_regress,
    }[args.obs_action]
    return handler(args)
