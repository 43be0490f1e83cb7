#!/usr/bin/env python3
"""One layered benchmark for the ZIV stack.

Four seeded workloads (see ``README.md`` beside this file) run through
the public entry points of the simulator, the result cache, the ledger
and the HTTP service.  Each run checks the simulated outputs and prints
its metrics by name and unit; the last line of standard output is one
JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

Untraced runs report the end-to-end metrics of ``BENCHMARK.json``;
traced runs (``--trace 1``) wrap each layer, write spans, and report the
per-layer metrics instead.  The exit code is 1 when a check fails.

Usage, from the repository root (no install step)::

    python3 benchmarks/stack/bench_stack.py --workload sweep-cold --seed 1 \\
        --seconds 20 --trace 0
    python3 benchmarks/stack/bench_stack.py run --runs 5 --out set.json
    python3 benchmarks/stack/bench_stack.py compare base.json new.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from stack import layers, loads, summary  # noqa: E402
from stack.spans import Tracer, load_spans  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
WORK_ROOT = ROOT / ".bench_stack"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
#: Set-up is repeated at least this many times, and for at least this
#: long, per run; the median is setup_s.  A set-up of a few milliseconds
#: needs many repeats before its median settles.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: A run that takes longer than this is stopped and counted as failed.
RUN_TIMEOUT_S = 180

METHODOLOGY = (
    "each run: set-up repeated at least 3 times and 1 s (median = "
    "setup_s), then fixed-size "
    "rounds in a fresh forked child (the service: its own server process) "
    "while they fit in --seconds; medians over rounds and requests, each "
    "timing scaled by the host speed a fixed calibration loop measures "
    "around it; peak RSS read after the first round; fresh "
    "REPRO_CACHE_DIR per run, REPRO_MP_START=fork, 2 workers; outputs "
    "checked exactly, model not validated against hardware"
)

# Settings from the caller's environment that would change what runs.
_CLEARED_ENV = (
    "REPRO_CACHE", "REPRO_LEDGER", "REPRO_AUDIT", "REPRO_TELEMETRY",
    "REPRO_PROFILE", "http_proxy", "https_proxy", "all_proxy",
    "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
)


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def units(spec: dict) -> dict:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def percentile(values: list, q: int) -> float:
    """The ``q``-th percentile, from ``statistics.quantiles``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_times: list, timed: loads.Timed) -> dict:
    """Medians over set-ups, rounds and requests, every timing scaled to
    the reference host's speed (see :func:`stack.loads.host_speed`)."""
    rounds = [r for r in timed.rounds if not r.traced]
    return {
        "setup_s": statistics.median(setup_times),
        "sim_accesses_per_s": statistics.median(
            r.accesses / r.reference_s for r in rounds),
        "recipes_per_s": statistics.median(
            r.recipes / r.reference_s for r in rounds),
        "latency_p50_ms": statistics.median(
            ms * r.speed for r in rounds for _, ms in r.latencies),
        "peak_rss_mb": timed.peak_rss_mb,
    }


def per_layer(spans: list, timed: loads.Timed) -> dict:
    out = layers.analyse(spans, loads.WORKERS)
    plain = [r for r in timed.rounds if not r.traced]
    traced = [r for r in timed.rounds if r.traced]
    out["trace.overhead_frac"] = (
        statistics.median(r.reference_s for r in traced)
        / statistics.median(r.reference_s for r in plain) - 1.0)
    for kind, tail, prefix in (("hit", 95, "hit"), ("fresh", 75, "fresh")):
        kinds = ("fresh", "coalesced") if kind == "fresh" else ("hit",)
        samples = [ms for r in plain for k, ms in r.latencies if k in kinds]
        out[f"jobs.{prefix}_samples"] = len(samples)
        if samples:
            out[f"jobs.{prefix}_latency_p50_ms"] = statistics.median(samples)
            out[f"jobs.{prefix}_latency_p{tail}_ms"] = percentile(samples,
                                                                 tail)
    for counter in ("llc_misses", "relocations", "inclusion_victims_llc"):
        out[f"sim.{counter}"] = sum(s[counter] for s in timed.stats)
    return out


def committed_digest(workload: str, size: str):
    try:
        return json.loads(DIGESTS_PATH.read_text())[size].get(workload)
    except (OSError, KeyError, ValueError):
        return None


def run_single(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_stack: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = loads.WORKLOADS[name]
    size = "smoke" if smoke else "full"
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    for var in _CLEARED_ENV:
        os.environ.pop(var, None)
    os.environ.update(REPRO_MP_START="fork", TMPDIR=str(work_dir),
                      REPRO_CACHE_DIR=str(work_dir / "cache"))
    run = loads.Run(seed, loads.SIZES[size], ROOT, work_dir)
    state = None
    try:
        setup_times = []
        setup_started = time.monotonic()
        while (len(setup_times) < SETUP_REPEATS
               or time.monotonic() - setup_started < SETUP_SECONDS):
            if state is not None:
                workload.teardown(state)
                state = None
            before = loads.host_speed(workload.parallel)
            t0 = time.monotonic()
            state = workload.setup(run)
            wall = time.monotonic() - t0
            after = loads.host_speed(workload.parallel)
            setup_times.append(wall * (before + after) / 2)
        tracer = Tracer(work_dir / "spans") if trace else None
        timed = workload.measure(run, state, seconds, tracer)
        failures = workload.check(run, state, timed)
        if tracer is not None:
            spans = load_spans(tracer.out_dir)
            kept = WORK_ROOT / "spans" / f"{name}-seed{seed}.jsonl"
            kept.parent.mkdir(exist_ok=True)
            kept.write_text("".join(json.dumps(s) + "\n" for s in spans))
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(work_dir, ignore_errors=True)

    digest = loads.stats_digest(timed.stats)
    if seed == DEFAULT_SEED:
        expected = committed_digest(name, size)
        if expected != digest:
            failures.append(f"stats digest {digest} does not match the "
                            f"committed {size} digest {expected}")
    metrics = per_layer(spans, timed) if trace else end_to_end(setup_times,
                                                                timed)
    attempted = sum(r.recipes + r.failed for r in timed.rounds)
    failed = sum(r.failed for r in timed.rounds)
    unit = units(load_spec())

    print(f"{name}: seed {seed}, {size} size, {len(timed.rounds)} rounds, "
          f"{'traced' if trace else 'untraced'}, cpus {host_cpus()}, "
          f"python {platform.python_version()}")
    print(f"  host speed, reference host = 1: median "
          f"{statistics.median(r.speed for r in timed.rounds):.3f}")
    for metric, value in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {unit.get(metric, '')}")
    if trace:
        print(f"  spans: {kept.relative_to(ROOT)}")
    print(f"  digest {name}/{size}: {digest}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit.get(m, "")}
                    for m, v in metrics.items()},
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Sets of runs
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_set(args) -> int:
    spec = load_spec()
    names = args.workload or list(loads.WORKLOADS)
    result = {
        "bench": "stack",
        "cpus": host_cpus(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "methodology": METHODOLOGY,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
        "trace": args.trace,
        "runs": {name: [] for name in names},
        "wall_s": {name: [] for name in names},
    }
    status = 0
    for i in range(args.runs):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds),
                   "--trace", "1" if args.trace else "0"]
            if args.smoke:
                cmd.append("--smoke")
            t0 = time.monotonic()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{name}: seed {args.seed + i} timed out",
                      file=sys.stderr)
                status = 1
                continue
            result["wall_s"][name].append(time.monotonic() - t0)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                continue
            record = json.loads(lines[-1])
            record["seed"] = args.seed + i
            result["runs"][name].append(record)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["summary"] = {}
    for name, records in result["runs"].items():
        if not records:
            continue
        rows = {}
        for metric in declared:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            rows[metric["name"]] = dict(summary.describe(values),
                                        unit=metric["unit"])
            # Flat keys in the unified BENCH shape, for `repro obs regress`.
            flat = f"{name.replace('-', '_')}_{metric['name']}"
            result[flat.replace(".", "_")] = rows[metric["name"]]["median"]
        result["summary"][name] = rows

    print("\nsummary (median [q1, q3] spread, over "
          f"{args.runs} run(s)):")
    for name, rows in result["summary"].items():
        wall = statistics.median(result["wall_s"][name])
        print(f"{name}  (median run wall {wall:.1f} s)")
        for metric, row in rows.items():
            print(f"  {metric:44s} {row['median']:14.6g} "
                  f"[{row['q1']:.6g}, {row['q3']:.6g}] "
                  f"{100 * row['spread']:5.1f}% {row['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    return status


def run_compare(args) -> int:
    spec = load_spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    rows = summary.compare(base, new, spec)
    bad = 0
    for workload, metric, v in rows:
        print(f"{workload:14s} {metric:20s} {v['verdict']:10s} "
              f"base {v['base']['median']:12.6g} "
              f"(spread {100 * v['base']['spread']:4.1f}%)  "
              f"new {v['new']['median']:12.6g}  "
              f"worse by {100 * v['worse']:+6.1f}%  "
              f"wins {v['wins']}/{v['pairs']}")
        bad += v["verdict"] in ("regressed", "unresolved")
    print(f"compare: {len(rows)} row(s), {bad} regressed or unresolved")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(
            prog="bench_stack.py compare",
            description="compare two result sets written by 'run --out'")
        parser.add_argument("base")
        parser.add_argument("new")
        return run_compare(parser.parse_args(argv[1:]))
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(
            prog="bench_stack.py run",
            description="run workloads several times, each run in its own "
                        "process with its own seed, and summarise")
        parser.add_argument("--workload", action="append",
                            choices=sorted(loads.WORKLOADS))
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                            help="seed of the first run; run i uses seed+i")
        parser.add_argument("--runs", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
        parser.add_argument("--trace", action="store_true")
        parser.add_argument("--smoke", action="store_true")
        parser.add_argument("--out")
        return run_set(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description="one run of one workload")
    parser.add_argument("--workload", required=True,
                        choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rounds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    return run_single(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
