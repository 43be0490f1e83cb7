#!/usr/bin/env python3
"""CI large-trace smoke: the out-of-core pipeline end to end.

Builds a multi-core workload, round-trips it through the gzip text and
chunked binary trace formats, then runs it four ways and demands
bit-identical statistics:

1. in memory (the reference),
2. streamed from the ``tracebin`` file,
3. streamed with checkpointing on, interrupted (``stop_after``) and
   resumed -- twice, so a resumed run is itself interrupted and resumed
   again (the sharded-across-sessions shape),
4. via a :class:`~repro.sim.tracebin.TraceRef` recipe (the cache-key
   path), on both engines: in timing mode equal to the reference, and
   in lock-step mode (the Fig. 2 interleaving) equal to each other.

Exits non-zero on the first divergence.  Scale with ``--accesses``:

    PYTHONPATH=src python scripts/trace_smoke.py --accesses 40000
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path


def signature(result):
    return (
        dataclasses.asdict(result.stats),
        result.cycles,
        result.energy.total_energy_pj() if result.energy else None,
        result.telemetry.series.to_dict() if result.telemetry else None,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=40_000,
                        help="accesses per core (default 40000)")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--chunk-records", type=int, default=4096)
    args = parser.parse_args(argv)

    from repro.params import scaled_config
    from repro.sim.checkpoint import SimulationInterrupted
    from repro.sim.engine import run_workload
    from repro.sim.parallel import RunRecipe, run_many
    from repro.sim.tracebin import (
        convert_text_trace,
        make_trace_ref,
        open_trace,
    )
    from repro.sim.tracefile import save_workload
    from repro.workloads import homogeneous_mix

    config = scaled_config("256KB", cores=args.cores)
    wl = homogeneous_mix("xalancbmk.2", cores=args.cores,
                         n_accesses=args.accesses)
    total = wl.total_accesses()
    run_kwargs = dict(scheme_name="ziv:notinprc", telemetry="5000")

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        text = tmp / "smoke.trace.gz"
        binary = tmp / "smoke.tracebin"
        save_workload(wl, text)
        info = convert_text_trace(text, binary,
                                  chunk_records=args.chunk_records)
        assert info["fingerprint"] == wl.fingerprint(), (
            "conversion changed the content fingerprint"
        )
        print(f"converted: {info['records']} records, {info['chunks']} "
              f"chunks, {info['bytes']} bytes")

        print(f"[1/4] in-memory run ({total} accesses)")
        base = run_workload(config, wl, **run_kwargs)
        base_sig = signature(base)

        print("[2/4] streamed run")
        with open_trace(binary) as bw:
            streamed = run_workload(config, bw, **run_kwargs)
        assert signature(streamed) == base_sig, (
            "streamed run diverged from in-memory run"
        )

        print("[3/4] streamed run, interrupted twice and resumed")
        ckpt = tmp / "smoke.ckpt"
        legs = 0
        resume = None
        stops = [total // 3, 2 * total // 3, None]
        result = None
        for stop in stops:
            with open_trace(binary) as bw:
                try:
                    result = run_workload(
                        config, bw,
                        checkpoint_path=ckpt,
                        stop_after=stop,
                        resume_from=resume,
                        **run_kwargs,
                    )
                    break
                except SimulationInterrupted as interrupted:
                    legs += 1
                    resume = ckpt
                    print(f"  leg {legs}: checkpointed at "
                          f"{interrupted.accesses_done}/{total}")
        assert result is not None, "smoke run never completed"
        assert legs == 2, f"expected 2 interrupted legs, got {legs}"
        assert signature(result) == base_sig, (
            "checkpoint-kill-resume run diverged from in-memory run"
        )

        print("[4/4] TraceRef recipes on both engines, timing and lock-step")
        ref = make_trace_ref(binary)
        lockstep = {}
        for scheduling in ("timing", "lockstep"):
            for engine in ("object", "fast"):
                recipe = RunRecipe(
                    workload=ref,
                    scheme="ziv:notinprc",
                    config=config.replace(
                        engine=engine,
                        telemetry=base.telemetry.params,
                    ),
                    scheduling=scheduling,
                )
                sig = signature(run_many([recipe])[0])
                if scheduling == "lockstep":
                    lockstep[engine] = sig
                else:
                    assert sig == base_sig, (
                        f"TraceRef run on {engine} engine diverged"
                    )
        # Lock-step interleaves by access index, so it is compared across
        # the engines, not with the timing-mode reference.
        assert lockstep["object"] == lockstep["fast"], (
            "lock-step TraceRef runs diverged between the engines"
        )

    print("trace smoke: all runs bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
