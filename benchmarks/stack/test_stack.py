"""Tests of the stack benchmark, at its smoke size.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/stack -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from stack import summary
from stack.layers import request_ids_by_process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = ["--seed", "1", "--seconds", "0.5", "--smoke"]


def bench(*args: str, prelude: str = "") -> subprocess.CompletedProcess:
    """Run the benchmark in a fresh interpreter; ``prelude`` runs first,
    inside that interpreter, after the benchmark modules are imported."""
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(HERE.parent)!r})
        from stack import bench_stack
    """) + textwrap.dedent(prelude) + textwrap.dedent(f"""
        sys.exit(bench_stack.main({list(args)!r}))
    """)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def assert_declared(metrics: dict, declared: list) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_line(bench("--workload", workload, "--trace", "0",
                               *SMOKE))
    assert_declared(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_that_cover_the_wall(workload):
    result = result_line(bench("--workload", workload, "--trace", "1",
                               *SMOKE))
    metrics = result["metrics"]
    assert_declared(metrics, SPEC["per_layer"])
    # The layer self times sum to the traced wall within 10%.
    assert metrics["trace.coverage"]["value"] >= 0.9
    kept = ROOT / ".bench_stack" / "spans" / f"{workload}-seed1.jsonl"
    spans = [json.loads(line) for line in kept.read_text().splitlines()]
    assert {"start", "end", "parent", "pid"} <= set(spans[0])
    if workload == "service-mixed":
        processes = request_ids_by_process(spans)
        # One id follows a fresh job from the client through the server
        # into a pool worker.
        assert processes and max(len(p) for p in processes.values()) == 3
        assert all(len(p) >= 2 for p in processes.values())


def test_corrupted_committed_digest_fails_the_run(tmp_path):
    digests = json.loads((HERE / "digests.json").read_text())
    digests["smoke"]["sweep-warm"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    proc = bench("--workload", "sweep-warm", "--trace", "0", *SMOKE,
                 prelude=f"""
                 from pathlib import Path
                 bench_stack.DIGESTS_PATH = Path({str(path)!r})
                 """)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "does not match the committed smoke digest" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False


def test_object_fast_mismatch_fails_the_run():
    # Skew the fast engine's statistics in every process the run forks.
    proc = bench("--workload", "sweep-cold", "--trace", "0", *SMOKE,
                 prelude="""
                 from repro.sim import engine
                 plain_run = engine.Simulation.run
                 def skewed(self, *args, **kwargs):
                     out = plain_run(self, *args, **kwargs)
                     if getattr(self.hierarchy, "engine_name", "") == "fast":
                         out.stats.llc_misses += 1
                     return out
                 engine.Simulation.run = skewed
                 """)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "object and fast engines differ in ['llc_misses']" in proc.stdout


def test_compare_flags_regressions_and_wide_spreads():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [v * 1.2 for v in steady]
    assert summary.verdict(steady, steady, "lower", 0.1)["verdict"] == \
        "unchanged"
    assert summary.verdict(steady, slower, "lower", 0.1)["verdict"] == \
        "regressed"
    assert summary.verdict(slower, steady, "lower", 0.1)["verdict"] == \
        "improved"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert summary.verdict(noisy, noisy, "lower", 0.1)["verdict"] == \
        "unresolved"
