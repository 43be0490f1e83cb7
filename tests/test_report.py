"""Result reports."""

from tests.conftest import tiny_config

from repro.sim.engine import run_workload
from repro.sim.report import compare_results, describe_result
from repro.sim.trace import CoreTrace, TraceRecord, Workload


def workload():
    traces = [
        CoreTrace(
            [TraceRecord(1, (c + 1) * 512 + i % 20, i % 4 == 0, i % 5)
             for i in range(300)],
            f"app{c}",
        )
        for c in range(2)
    ]
    return Workload(traces, "report-wl")


class TestDescribe:
    def test_mentions_headline_counters(self):
        r = run_workload(tiny_config(), workload(), "ziv:notinprc")
        out = describe_result(r)
        assert "incl. victims : 0 (LLC)" in out
        assert "relocations" in out
        assert "pJ/instruction" in out

    def test_prefetch_line_only_when_active(self):
        r = run_workload(tiny_config(), workload(), "inclusive")
        assert "prefetches" not in describe_result(r)
        from repro.params import PrefetchParams

        cfg = tiny_config().replace(
            prefetch=PrefetchParams(kind="nextline", degree=1)
        )
        r2 = run_workload(cfg, workload(), "inclusive")
        assert "prefetches" in describe_result(r2)

    def test_audit_and_telemetry_lines_only_when_ran(self):
        plain = run_workload(tiny_config(), workload(), "ziv:notinprc")
        out = describe_result(plain)
        assert "audit" not in out
        assert "telemetry" not in out

        instrumented = run_workload(
            tiny_config(), workload(), "ziv:notinprc",
            audit="end", telemetry="50,events=relocation",
        )
        out2 = describe_result(instrumented)
        assert "audit         : 0 violation(s)" in out2
        assert "telemetry     :" in out2
        assert "sample(s) at interval 50" in out2
        assert "events        :" in out2
        assert "(relocation)" in out2

    def test_telemetry_event_line_needs_event_tracing(self):
        r = run_workload(
            tiny_config(), workload(), "ziv:notinprc", telemetry="50"
        )
        out = describe_result(r)
        assert "telemetry     :" in out
        assert "events        :" not in out

    def test_phase_times_and_hot_path_on_every_run(self):
        cfg = tiny_config()
        lines = describe_result(
            run_workload(cfg, workload(), "inclusive"), cfg
        ).splitlines()
        phases = [ln for ln in lines if ln.startswith("phases        :")]
        hot = [ln for ln in lines if ln.startswith("hot path      :")]
        assert len(phases) == 1 and "access_loop" in phases[0]
        assert len(hot) == 1 and "l1_hit" in hot[0]


class TestCompare:
    def test_compare_reports_speedup_and_ratios(self):
        wl = workload()
        base = run_workload(tiny_config(), wl, "inclusive")
        cand = run_workload(tiny_config(), wl, "ziv:notinprc")
        out = compare_results(base, cand)
        assert "speedup" in out
        assert "vs baseline inclusive/lru" in out
        assert "incl. victims" in out
