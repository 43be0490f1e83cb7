"""Telemetry layer: sampling exactness, event tracing, spec parsing,
cache-key participation, and the disabled-path guarantee."""

from __future__ import annotations

import time

import pytest

from tests.conftest import tiny_config
from repro.params import (
    TELEMETRY_CATEGORIES,
    ConfigError,
    TelemetryParams,
)
from repro.sim.engine import Simulation, run_workload
from repro.sim.parallel import make_recipe, run_many
from repro.sim.telemetry import (
    CORESTATS_COUNTERS,
    SIMSTATS_COUNTERS,
    ProgressPrinter,
    ProgressTracker,
    TelemetryCollector,
    TimeSeries,
    events_from_jsonl,
    events_to_jsonl,
    parse_telemetry_spec,
    resolve_telemetry,
)
from repro.workloads import homogeneous_mix


def _run(telemetry=None, scheme="ziv:notinprc", n_accesses=600, cores=2,
         scheduling="timing", config=None):
    cfg = config or tiny_config()
    wl = homogeneous_mix("mcf.1", cores=cores, n_accesses=n_accesses)
    return run_workload(cfg, wl, scheme, llc_policy="lru",
                        scheduling=scheduling, telemetry=telemetry)


# ---------------------------------------------------------------------------
# Spec parsing and resolution
# ---------------------------------------------------------------------------


class TestSpec:
    def test_default_disabled(self):
        assert TelemetryParams().enabled is False

    def test_none_is_disabled(self):
        assert parse_telemetry_spec(None).enabled is False

    def test_empty_and_on_enable_with_defaults(self):
        for spec in ("", "on"):
            p = parse_telemetry_spec(spec)
            assert p.enabled and p.interval == 1000

    def test_full_spec(self):
        p = parse_telemetry_spec(
            "250,ring=128,events=relocation+char,maxevents=99,severity=debug"
        )
        assert p.enabled
        assert p.interval == 250
        assert p.ring_capacity == 128
        assert p.event_categories() == ("relocation", "char")
        assert p.max_events == 99
        assert p.min_severity == "debug"

    def test_events_all(self):
        assert (parse_telemetry_spec("events").event_categories()
                == TELEMETRY_CATEGORIES)
        assert (parse_telemetry_spec("events=all").event_categories()
                == TELEMETRY_CATEGORIES)

    def test_off(self):
        assert parse_telemetry_spec("off").enabled is False

    def test_bad_token_raises(self):
        with pytest.raises(ConfigError):
            parse_telemetry_spec("bogus=7")

    def test_bad_category_raises(self):
        with pytest.raises(ConfigError):
            TelemetryParams(enabled=True, events="nosuchcat")

    def test_bad_severity_raises(self):
        with pytest.raises(ConfigError):
            TelemetryParams(enabled=True, min_severity="loud")

    def test_nonpositive_interval_raises(self):
        with pytest.raises(ConfigError):
            TelemetryParams(enabled=True, interval=0)

    def test_resolve_precedence(self):
        explicit = TelemetryParams(enabled=True, interval=7)
        config_p = TelemetryParams(enabled=True, interval=11)
        assert resolve_telemetry(explicit, config_p).interval == 7
        assert resolve_telemetry("5", config_p).interval == 5
        assert resolve_telemetry(None, config_p).interval == 11
        assert resolve_telemetry(None, None).enabled is False

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError):
            resolve_telemetry(42)


# ---------------------------------------------------------------------------
# Interval sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_delta_sums_match_final_counters(self):
        """Summing every delta column reproduces the end-of-run counter
        exactly -- the naive-recount cross-check."""
        res = _run(telemetry="50")
        t = res.telemetry
        assert t is not None
        s = res.stats
        for name in SIMSTATS_COUNTERS:
            assert t.series.total(name) == getattr(s, name), name
        for name in CORESTATS_COUNTERS:
            expected = sum(getattr(c, name) for c in s.cores)
            assert t.series.total(name) == expected, name

    def test_relocation_deltas_acceptance(self):
        """The ISSUE's acceptance check at 1/1000 sampling."""
        res = _run(telemetry="1000", n_accesses=1500)
        t = res.telemetry
        assert t.series.total("relocations") == res.stats.relocations
        assert res.stats.relocations > 0

    def test_sample_positions(self):
        res = _run(telemetry="50", n_accesses=600, cores=2)
        idx = res.telemetry.series.column("access_index")
        # Regular boundaries plus the tail sample at the total.
        assert idx[0] == 50
        assert idx[-1] == res.stats.total_accesses
        assert all(b > a for a, b in zip(idx, idx[1:]))

    def test_lockstep_mode_samples_too(self):
        res = _run(telemetry="50", scheduling="lockstep")
        t = res.telemetry
        assert len(t.series) > 1
        assert t.series.total("relocations") == res.stats.relocations

    def test_gauge_columns_present_for_ziv(self):
        res = _run(telemetry="100")
        cols = res.telemetry.series.columns
        assert "dir_occupancy" in cols
        assert "reloc_fifo_depth" in cols
        assert any(c.startswith("empty_pv:") for c in cols)

    def test_char_gauge_present_for_likelydead(self):
        res = _run(telemetry="100", scheme="ziv:likelydead")
        assert "char_d_min" in res.telemetry.series.columns

    def test_non_ziv_scheme_has_no_scheme_gauges(self):
        res = _run(telemetry="100", scheme="inclusive")
        cols = res.telemetry.series.columns
        assert "dir_occupancy" in cols
        assert "reloc_fifo_depth" not in cols
        assert not any(c.startswith("empty_pv:") for c in cols)

    def test_ring_overflow_drops_oldest(self):
        res = _run(telemetry="10,ring=4", n_accesses=600)
        series = res.telemetry.series
        assert len(series) == 4
        assert series.dropped > 0
        # With drops, column totals are lower bounds.
        assert series.total("accesses") < res.stats.total_accesses

    def test_series_round_trip(self):
        res = _run(telemetry="50")
        series = res.telemetry.series
        back = TimeSeries.from_dict(series.to_dict())
        assert back.columns == series.columns
        assert back.samples == series.samples
        assert back.dropped == series.dropped

    def test_collector_detaches_after_run(self):
        cfg = tiny_config().replace(telemetry=parse_telemetry_spec("50"))
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=300)
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme

        h = CacheHierarchy(cfg, make_scheme("ziv:likelydead"))
        sim = Simulation(h, wl)
        assert sim.run().telemetry is not None
        assert h.telemetry is None
        assert h.char.telemetry is None


# ---------------------------------------------------------------------------
# Event tracing
# ---------------------------------------------------------------------------


class TestEvents:
    def test_relocation_event_schema(self):
        res = _run(telemetry="100,events=relocation")
        events = res.telemetry.events
        relocs = [e for e in events if e.category == "relocation"]
        assert len(relocs) == res.stats.relocations
        for e in relocs:
            assert e.kind in ("relocation", "re_relocation",
                              "cross_bank_fallback")
            assert len(e.data["src"]) == 3
            assert len(e.data["dst"]) == 3
            assert e.access_index >= 0

    @pytest.mark.parametrize("params", [
        TelemetryParams(enabled=True),
        TelemetryParams(enabled=True, events="all", min_severity="warn"),
    ], ids=["untraced", "warn-floor"])
    def test_emit_rejects_unknown_kind_before_filtering(self, params):
        """A misspelt kind raises wherever it is emitted, even when no
        category is traced or the severity floor would drop it."""
        from tests.conftest import build

        collector = TelemetryCollector(build("inclusive"), params)
        with pytest.raises(KeyError, match="tau_rset"):
            collector.emit("tau_rset", d=1)
        assert collector.events == []

    def test_category_filter(self):
        res = _run(telemetry="100,events=directory")
        kinds = {e.kind for e in res.telemetry.events}
        assert kinds <= {"directory_eviction"}

    def test_no_events_when_not_requested(self):
        res = _run(telemetry="100")
        assert res.telemetry.events == []

    def test_severity_filter_drops_debug(self):
        # tau_reset is debug severity; default min is info.  A tiny reset
        # interval forces periodic resets within the short run.
        from repro.params import CHARParams

        cfg = tiny_config().replace(char=CHARParams(reset_interval=200))
        p_info = TelemetryParams(enabled=True, interval=100, events="char")
        p_debug = TelemetryParams(enabled=True, interval=100, events="char",
                                  min_severity="debug")
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=1500)
        res_info = run_workload(cfg, wl, "ziv:likelydead",
                                telemetry=p_info)
        res_debug = run_workload(cfg, wl, "ziv:likelydead",
                                 telemetry=p_debug)
        info_kinds = {e.kind for e in res_info.telemetry.events}
        debug_kinds = {e.kind for e in res_debug.telemetry.events}
        assert "tau_reset" not in info_kinds
        assert "tau_reset" in debug_kinds

    def test_max_events_cap(self):
        res = _run(telemetry="100,events=all,maxevents=5")
        t = res.telemetry
        assert len(t.events) == 5
        assert t.dropped_events > 0

    def test_jsonl_round_trip(self):
        res = _run(telemetry="100,events=all")
        events = res.telemetry.events
        assert events
        text = events_to_jsonl(events)
        assert text.count("\n") == len(events)
        assert events_from_jsonl(text) == events

    def test_events_stamped_within_run(self):
        res = _run(telemetry="100,events=relocation")
        total = res.stats.total_accesses
        for e in res.telemetry.events:
            assert 0 <= e.access_index < total


# ---------------------------------------------------------------------------
# Cache-key participation and recipe integration
# ---------------------------------------------------------------------------


class TestCacheKey:
    def test_telemetry_changes_recipe_key(self):
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=300)
        cfg = tiny_config()
        base = make_recipe(wl, "inclusive", config=cfg)
        sampled = make_recipe(wl, "inclusive", config=cfg, telemetry="100")
        other = make_recipe(wl, "inclusive", config=cfg, telemetry="200")
        assert base.key() != sampled.key()
        assert sampled.key() != other.key()
        again = make_recipe(wl, "inclusive", config=cfg, telemetry="100")
        assert sampled.key() == again.key()

    def test_run_many_serial_carries_telemetry(self):
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=300)
        cfg = tiny_config()
        recipe = make_recipe(wl, "ziv:notinprc", config=cfg,
                             telemetry="50")
        [result] = run_many([recipe])
        assert result.telemetry is not None
        assert (result.telemetry.series.total("relocations")
                == result.stats.relocations)


# ---------------------------------------------------------------------------
# Progress heartbeats
# ---------------------------------------------------------------------------


class TestProgress:
    def test_run_many_heartbeats(self):
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=300)
        cfg = tiny_config()
        recipes = [
            make_recipe(wl, scheme, config=cfg)
            for scheme in ("inclusive", "noninclusive")
        ]
        beats = []
        run_many(recipes, heartbeat=beats.append)
        assert len(beats) == 2
        assert beats[-1].completed == beats[-1].total == 2
        assert beats[-1].simulated >= 1
        # Same recipes again: everything resolves from the memo.
        beats2 = []
        run_many(recipes, heartbeat=beats2.append)
        assert beats2[-1].from_memo == 2
        assert beats2[-1].simulated == 0

    def test_tracker_eta_and_rate(self):
        tracker = ProgressTracker(total=3, jobs=1)

        class _Result:
            class stats:
                total_accesses = 1000

        p = tracker.advance("a", "run", _Result())
        assert p.completed == 1 and p.total == 3
        assert p.accesses == 1000
        assert p.eta_s is not None and p.eta_s >= 0
        p = tracker.advance("b", "memo", None)
        assert p.from_memo == 1

    def test_printer_writes_and_terminates_line(self):
        import io

        buf = io.StringIO()
        printer = ProgressPrinter(stream=buf)
        tracker = ProgressTracker(total=1)
        printer(tracker.advance("x", "memo", None))
        printer.done()
        text = buf.getvalue()
        assert "[1/1]" in text
        assert text.endswith("\n")

    def test_heartbeats_carry_recipe_key_and_engine(self):
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=300)
        cfg = tiny_config()
        recipes = [
            make_recipe(wl, scheme, config=cfg)
            for scheme in ("inclusive", "qbs")
        ]
        beats = []
        run_many(recipes, heartbeat=beats.append)
        assert [b.key for b in beats] == [r.key() for r in recipes]
        assert all(b.engine == "object" for b in beats)
        assert all(b.short_key == b.key[:8] for b in beats)

    def test_interleaved_printer_lines_stay_attributable(self):
        """Two fleets sharing one stream: every rendered line must name
        the recipe (short key + engine + label) that just resolved, so
        captured logs with interleaved heartbeats stay readable."""
        import io

        buf = io.StringIO()
        printer = ProgressPrinter(stream=buf)
        tracker_a = ProgressTracker(total=1)
        tracker_b = ProgressTracker(total=1)
        printer(tracker_a.advance("fleet-a/wl0", "memo", None,
                                  key="aaaa1111" * 8, engine="object"))
        printer(tracker_b.advance("fleet-b/wl1", "run", None,
                                  key="bbbb2222" * 8, engine="fast"))
        printer.done()
        lines = buf.getvalue().split("\r")
        assert "aaaa1111" in lines[1] and "/object" in lines[1]
        assert "fleet-a/wl0" in lines[1]
        assert "bbbb2222" in lines[2] and "/fast" in lines[2]
        assert "fleet-b/wl1" in lines[2]
        # The full 64-hex key never hits the display -- short form only.
        assert "aaaa1111" * 8 not in buf.getvalue()

    def test_printer_without_key_shows_placeholder(self):
        import io

        buf = io.StringIO()
        printer = ProgressPrinter(stream=buf)
        printer(ProgressTracker(total=1).advance("x", "memo", None))
        assert "--------" in buf.getvalue()


# ---------------------------------------------------------------------------
# The disabled path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_no_collector_artifacts_when_disabled(self):
        cfg = tiny_config()
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=300)
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme

        h = CacheHierarchy(cfg, make_scheme("ziv:likelydead"))
        sim = Simulation(h, wl)
        res = sim.run()
        assert res.telemetry is None
        assert h.telemetry is None
        assert h.char.telemetry is None

    def test_disabled_run_matches_enabled_run_statistics(self):
        """Telemetry observes; it must never perturb simulation outcomes."""
        res_off = _run()
        res_on = _run(telemetry="50,events=all")
        assert res_off.stats.summary() == res_on.stats.summary()
        assert res_off.cycles == res_on.cycles

    def test_disabled_overhead_micro_benchmark(self):
        """Structural guard: with telemetry disabled the engine must not
        construct a collector, and repeated runs must not slow down
        beyond noise.  (The authoritative throughput check is
        benchmarks/bench_parallel_runner.py vs BENCH_pr1.json.)"""
        cfg = tiny_config()
        wl = homogeneous_mix("mcf.1", cores=2, n_accesses=1500)

        def one_run():
            t0 = time.perf_counter()
            run_workload(cfg, wl, "inclusive", llc_policy="lru")
            return time.perf_counter() - t0

        one_run()  # warm profiles/import caches
        times = sorted(one_run() for _ in range(3))
        # Sanity: the disabled path stays within a generous envelope of
        # itself across repeats (catches accidental O(n) work leaking into
        # the hot loop far below any 2% regression threshold).
        assert times[-1] < times[0] * 5
