"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``                 available schemes, policies, profiles, figures
``figure <name>``        regenerate one figure or ablation (e.g. fig08_lru_perf)
``run``                  run one workload/scheme/policy combination
``sidechannel``          prime+probe campaign across designs
``config``               print the scaled and paper-scale configurations
``cache``                inspect or clear the persistent result cache
``lint``                 static-analysis pass enforcing simulator invariants
``trace``                convert/inspect/verify binary trace files
``obs``                  run ledger, metrics export, perf-regression gate
``serve``                run the HTTP/JSON simulation job service
``submit``               submit one recipe to a running service
``jobs``                 list a running service's jobs
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from repro.cache.replacement import POLICIES
    from repro.core.properties import PROPERTY_LADDERS
    from repro.experiments import TABLES
    from repro.schemes import SCHEMES
    from repro.workloads import ALL_PROFILE_NAMES, MT_APP_NAMES

    ziv = [f"ziv:{p}" for p in sorted(PROPERTY_LADDERS)] + ["ziv:oracle"]
    print("schemes:", " ".join(SCHEMES))
    print("        ", " ".join(ziv))
    print("policies:", " ".join([*POLICIES, "belady"]))
    print("figures:", " ".join(TABLES))
    print("profiles:", " ".join(ALL_PROFILE_NAMES))
    print("multithreaded:", " ".join(MT_APP_NAMES))
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import TABLES, run_figure
    from repro.sim.telemetry import ProgressPrinter

    if args.name not in TABLES:
        print(f"unknown figure {args.name!r}; known: "
              f"{' '.join(TABLES)}", file=sys.stderr)
        return 2
    printer = ProgressPrinter() if args.progress else None
    result = run_figure(args.name, args.scale, heartbeat=printer)
    if printer is not None:
        printer.done()
    result.print_table()
    return 0


def _cmd_run(args) -> int:
    from repro.config_io import check_run, load_config
    from repro.params import ConfigError, scaled_config
    from repro.sim.checkpoint import SimulationInterrupted
    from repro.sim.engine import run_workload
    from repro.sim.tracefile import TraceFormatError
    from repro.workloads import SynthRef

    # Bad input is refused here, before the run starts, with one line;
    # an error the run itself raises keeps its traceback.
    try:
        config = (load_config(args.config) if args.config
                  else scaled_config(args.l2))
        # An explicit --engine wins over the config file's.
        if args.engine is not None and args.engine != config.engine:
            config = config.replace(engine=args.engine)
        if args.trace:
            from repro.sim.tracebin import open_trace

            wl = open_trace(args.trace)
            if wl.cores != config.cores:
                # A trace file fixes the core count; follow it.
                config = config.replace(cores=wl.cores)
        else:
            wl = SynthRef.parse(args.workload, config.cores, args.accesses)
        check_run(config, args.scheme, args.policy)
    except (ConfigError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.sim.report import describe_result

    progress = None
    if args.progress:
        def progress(p):
            who = f"{p.label}/{p.engine}" if p.label or p.engine else "run"
            sys.stderr.write(
                f"\r{who}: chunk {p.chunk}/{p.chunks} | "
                f"{p.accesses_done}/{p.total_accesses} accesses "
                f"({100.0 * p.fraction:3.0f}%)"
                + (" | checkpointed" if p.checkpointed else "")
            )
            sys.stderr.flush()
    resume_from = None
    if args.resume:
        if not args.checkpoint:
            print("--resume requires --checkpoint", file=sys.stderr)
            return 2
        resume_from = args.checkpoint
    telemetry = args.telemetry
    if args.chart and telemetry is None:
        telemetry = "on"  # sample at the default interval
    try:
        result = run_workload(
            config, wl, args.scheme, llc_policy=args.policy,
            audit=args.audit, telemetry=telemetry,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=resume_from,
            stop_after=args.stop_after,
            progress=progress,
        )
    except SimulationInterrupted as interrupted:
        if args.progress:
            sys.stderr.write("\n")
        print(
            f"checkpointed at access {interrupted.accesses_done}/"
            f"{interrupted.total_accesses} -> "
            f"{interrupted.checkpoint_path}; resume with --resume"
        )
        return 3
    if args.progress:
        sys.stderr.write("\n")
    print(describe_result(result, config))
    if args.chart:
        from repro.experiments.ascii_chart import series_chart

        t = result.telemetry  # None only under --telemetry=off
        columns = t.series.columns if t is not None else []
        for column in args.chart:
            if column not in columns:
                print(f"unknown series column {column!r}; available: "
                      f"{' '.join(columns)}")
                return 2
            print(series_chart(
                t.series, column, title=f"{column} -- {result.scheme}/"
                f"{result.policy} on {result.workload}"))
    if result.telemetry is not None and args.events_out:
        from repro.sim.telemetry import write_events_jsonl

        n = write_events_jsonl(result.telemetry.events, args.events_out)
        print(f"wrote {n} event(s) to {args.events_out}")
    if result.audit is not None:
        print(result.audit.summary())
        if not result.audit.ok:
            return 1
    return 0


def _cmd_sidechannel(args) -> int:
    from repro.params import scaled_config
    from repro.security import prime_probe_experiment

    config = scaled_config(args.l2)
    for scheme in ("inclusive", "qbs", "sharp", "ziv:notinprc",
                   "noninclusive"):
        r = prime_probe_experiment(config, scheme, trials=args.trials)
        verdict = "LEAKS" if r.leaks else "blind"
        print(f"{scheme:14s} accuracy={r.accuracy:.2f}  {verdict}")
    return 0


def _cmd_config(_args) -> int:
    from repro.experiments import run_figure

    run_figure("table1").print_table()
    return 0


def _cmd_cache(args) -> int:
    from repro.sim.parallel import cache_dir, cache_enabled, cache_info
    from repro.sim.parallel import clear_result_cache

    if args.action == "clear":
        removed = clear_result_cache()
        print(f"removed {removed} cached result(s) from {cache_dir()}")
        return 0
    info = cache_info()
    state = "on" if cache_enabled() else "off (REPRO_CACHE)"
    print(f"dir: {info['path']}")
    print(f"state: {state}")
    print(f"entries: {info['entries']}")
    print(f"bytes: {info['bytes']}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import run_lint

    return run_lint(args.paths, args.format, args.rules, args.list_rules)


def _cmd_obs(args) -> int:
    from repro.obs.cli import run_obs

    return run_obs(args)


def _cmd_trace(args) -> int:
    from repro.sim.tracebin import (
        TraceBinReader,
        convert_din_trace,
        convert_text_trace,
    )
    from repro.sim.tracefile import TraceFormatError

    try:
        if args.action == "convert":
            fmt = args.format
            if fmt == "auto":
                src = args.src
                fmt = "din" if src.endswith((".din", ".din.gz")) else "text"
            if fmt == "din":
                info = convert_din_trace(
                    args.src, args.dst,
                    block_bits=args.block_bits,
                    chunk_records=args.chunk_records,
                )
            else:
                info = convert_text_trace(
                    args.src, args.dst, chunk_records=args.chunk_records
                )
            print(
                f"wrote {info['path']}: {info['records']} record(s), "
                f"{info['cores']} core(s), {info['chunks']} chunk(s), "
                f"{info['bytes']} bytes"
            )
            print(f"fingerprint: {info['fingerprint']}")
        elif args.action == "info":
            with TraceBinReader(args.src) as reader:
                info = reader.info()
            for key in ("path", "name", "cores", "records",
                        "chunk_records", "chunks", "bytes", "fingerprint"):
                print(f"{key}: {info[key]}")
            print("core_names: " + " ".join(info["core_names"]))
        else:  # verify
            with TraceBinReader(args.src) as reader:
                summary = reader.verify()
            print(
                f"{args.src}: OK -- {summary['records']} record(s) in "
                f"{summary['chunks']} chunk(s), fingerprint "
                f"{summary['fingerprint']}"
            )
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.service import create_server

    server = create_server(host=args.host, port=args.port,
                           workers=args.workers, mode=args.mode,
                           verbose=args.verbose)
    print(f"repro service listening on {server.url} "
          f"({server.manager.workers} {args.mode} worker(s)); "
          f"Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    if args.recipe:
        with open(args.recipe, "r", encoding="utf-8") as fh:
            body = json.load(fh)
    else:
        from repro.config_io import config_to_dict, workload_to_dict
        from repro.params import scaled_config
        from repro.workloads import SynthRef

        config = scaled_config(args.l2)
        if args.engine != config.engine:
            config = config.replace(engine=args.engine)
        try:
            ref = SynthRef.parse(args.workload, config.cores, args.accesses)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        body = {
            "workload": workload_to_dict(ref),
            "scheme": args.scheme,
            "policy": args.policy,
            "scheduling": args.scheduling,
            "config": config_to_dict(config),
        }
    with ServiceClient(args.url, timeout=args.timeout) as client:
        try:
            view = client.submit(body)
            print(f"job {view['id']} ({view['state']}): "
                  f"{view['scheme']}/{view['policy']} on {view['workload']} "
                  f"[{view['engine']}]")
            if args.no_wait:
                return 0
            view = client.wait(view["id"], timeout=args.timeout)
            if view["state"] == "failed":
                print(f"job {view['id']} failed: {view['error']}",
                      file=sys.stderr)
                return 1
            payload = client.result(view["id"])
            print(f"job {view['id']} done (source={view['source']}, "
                  f"wall={view['wall_s']:.3f}s)")
            print(f"  cycles: {payload['cycles']}")
            print(f"  accesses: {payload['summary']['accesses']}")
            ipc = ", ".join(f"{v:.4f}" for v in payload["ipc_per_core"])
            print(f"  ipc/core: {ipc}")
        except ServiceError as exc:
            print(f"service error: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(args.url, timeout=args.timeout) as client:
            views = client.jobs()
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    if not views:
        print("no jobs")
        return 0
    for view in views:
        line = (f"{view['id']:>6s}  {view['state']:8s} "
                f"{view['source'] or '-':5s} "
                f"{view['scheme']}/{view['policy']} on "
                f"{view['workload']} [{view['engine']}]")
        if view["error"]:
            line += f"  error: {view['error']}"
        if view["coalesced_into"]:
            line += f"  (coalesced into {view['coalesced_into']})"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zero Inclusion Victim LLC reproduction (ISCA 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list schemes/policies/profiles/figures")

    p = sub.add_parser("figure",
                       help="regenerate one paper figure or ablation study")
    p.add_argument("name")
    p.add_argument("--scale", default=None,
                   choices=("smoke", "quick", "standard", "full"))
    p.add_argument("--progress", action="store_true",
                   help="print a live progress line (completed/total, "
                        "cache provenance, accesses/s, ETA) to stderr "
                        "while the figure's runs resolve")

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("--workload", default="xalancbmk.2",
                   help="profile name, or mt:<app> for multi-threaded")
    p.add_argument("--scheme", default="ziv:likelydead")
    p.add_argument("--policy", default="lru")
    p.add_argument("--l2", default="512KB",
                   choices=("256KB", "512KB", "768KB", "1MB"))
    p.add_argument("--accesses", type=int, default=4000)
    p.add_argument("--engine", default=None,
                   choices=("object", "fast"),
                   help="simulation engine: the reference object engine "
                        "or the array-state fast engine (identical "
                        "statistics, several times faster); default: "
                        "the --config file's, else object")
    p.add_argument("--config", default=None, metavar="FILE.json",
                   help="machine description (see repro.config_io)")
    p.add_argument("--audit", nargs="?", const="end", default=None,
                   metavar="SPEC",
                   help="enable the runtime invariant auditor; SPEC is a "
                        "comma list of 'end' (default), 'every', an "
                        "integer interval N, 'fail' (fail-fast) or "
                        "'collect' -- e.g. --audit=100,fail.  The "
                        "REPRO_AUDIT environment variable supplies a "
                        "default spec (see repro.sim.audit)")
    p.add_argument("--telemetry", nargs="?", const="on", default=None,
                   metavar="SPEC",
                   help="enable interval sampling/event tracing; SPEC is "
                        "a comma list of an integer interval N, 'ring=N', "
                        "'events[=cat+cat]', 'maxevents=N' or "
                        "'severity=LEVEL' -- e.g. "
                        "--telemetry=250,events=relocation (see "
                        "repro.sim.telemetry)")
    p.add_argument("--chart", nargs="+", default=None, metavar="COLUMN",
                   help="after the run, chart these sampled columns "
                        "(e.g. relocations) as ASCII time series; "
                        "samples at the default interval unless "
                        "--telemetry gives a spec")
    p.add_argument("--events-out", default=None, metavar="FILE.jsonl",
                   help="write traced telemetry events as JSONL")
    p.add_argument("--trace", default=None, metavar="FILE.tracebin",
                   help="stream a binary trace file (see 'repro trace') "
                        "instead of synthesizing --workload; the core "
                        "count follows the trace")
    p.add_argument("--checkpoint", default=None, metavar="FILE.ckpt",
                   help="save resumable simulation state here at every "
                        "chunk boundary")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="N",
                   help="checkpoint cadence in accesses (default: the "
                        "trace's chunk size, else 65536)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the --checkpoint file instead of "
                        "starting fresh")
    p.add_argument("--stop-after", type=int, default=None, metavar="N",
                   help="checkpoint and exit (status 3) at the first "
                        "boundary at or beyond N total accesses")
    p.add_argument("--progress", action="store_true",
                   help="print chunk-position heartbeats to stderr")

    p = sub.add_parser("sidechannel", help="prime+probe campaign")
    p.add_argument("--trials", type=int, default=48)
    p.add_argument("--l2", default="512KB")

    sub.add_parser("config", help="print Table I (paper vs scaled)")

    p = sub.add_parser("cache", help="inspect/clear the on-disk result cache")
    p.add_argument("action", nargs="?", default="info",
                   choices=("info", "clear"))

    p = sub.add_parser(
        "lint",
        help="static-analysis pass enforcing simulator invariants "
             "(determinism, lock discipline)",
    )
    # Declared here, so building the parser never imports repro.lint.
    p.add_argument("paths", nargs="*", default=None,
                   help="files/directories to lint (default: src/repro)")
    p.add_argument("--format", default="human", choices=("human", "json"),
                   help="report format (default: human)")
    p.add_argument("--rules", default=None, metavar="ID[,ID...]",
                   help="run only this comma-separated subset of rules")
    p.add_argument("--list-rules", action="store_true",
                   help="list the rules and exit")

    p = sub.add_parser(
        "trace",
        help="convert external traces to the chunked binary format, "
             "inspect headers, verify content integrity",
    )
    p.add_argument("action", choices=("convert", "info", "verify"))
    p.add_argument("src", help="source trace file")
    p.add_argument("dst", nargs="?", default=None,
                   help="output .tracebin path (convert only)")
    p.add_argument("--format", default="auto",
                   choices=("auto", "text", "din"),
                   help="source format for convert: the repo's gzip text "
                        "format or a SimpleScalar/Dinero-style address "
                        "trace (auto: by file suffix)")
    p.add_argument("--block-bits", type=int, default=6,
                   help="din import: right-shift byte addresses by this "
                        "many bits to block addresses (default 6 = 64B)")
    p.add_argument("--chunk-records", type=int, default=65536,
                   help="records per chunk in the output (default 65536)")

    p = sub.add_parser(
        "obs",
        help="fleet observability: run-ledger inspection (ls/show/top/"
             "diff), metrics export (Prometheus/JSON), perf-regression "
             "gate (regress)",
    )
    from repro.obs.cli import add_arguments as _add_obs_arguments

    _add_obs_arguments(p)

    p = sub.add_parser(
        "serve",
        help="run the HTTP/JSON simulation job service (submit recipes "
             "with 'repro submit' or repro.service.ServiceClient)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8742,
                   help="listen port (0 binds a free ephemeral port)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker-pool width (default: CPU count)")
    p.add_argument("--mode", default="process",
                   choices=("process", "thread"),
                   help="execute jobs on a process pool (default) or "
                        "in-process threads (tiny workloads, tests)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")

    p = sub.add_parser(
        "submit",
        help="submit one recipe to a running service and print the result",
    )
    p.add_argument("--url", default="http://127.0.0.1:8742",
                   help="service base URL")
    p.add_argument("--recipe", default=None, metavar="FILE.json",
                   help="submit this serialized recipe verbatim instead "
                        "of building one from the flags below")
    p.add_argument("--workload", default="xalancbmk.2",
                   help="profile name, or mt:<app> for multi-threaded")
    p.add_argument("--scheme", default="ziv:likelydead")
    p.add_argument("--policy", default="lru")
    p.add_argument("--scheduling", default="timing",
                   choices=("timing", "lockstep"))
    p.add_argument("--l2", default="512KB",
                   choices=("256KB", "512KB", "768KB", "1MB"))
    p.add_argument("--accesses", type=int, default=4000)
    p.add_argument("--engine", default="object",
                   choices=("object", "fast"))
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the result")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and exit without waiting for the result")

    p = sub.add_parser("jobs", help="list a running service's jobs")
    p.add_argument("--url", default="http://127.0.0.1:8742",
                   help="service base URL")
    p.add_argument("--timeout", type=float, default=30.0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "figure": _cmd_figure,
        "run": _cmd_run,
        "sidechannel": _cmd_sidechannel,
        "config": _cmd_config,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }[args.command]
    if args.command == "trace" and args.action == "convert" and not args.dst:
        print("trace convert needs a destination path", file=sys.stderr)
        return 2
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
