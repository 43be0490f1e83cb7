"""Experiment infrastructure: caches, scales, aggregation, ASCII charts."""

import pytest

from repro.experiments.ascii_chart import bar_chart
from repro.experiments.common import (
    SCALES,
    FigureResult,
    baseline_recipes,
    clear_caches,
    get_scale,
    mix_population,
    mt_workload,
    resolve,
)
from repro.sim.metrics import (
    normalized_counts,
    normalized_speedups,
    speedup_summary,
)
from repro.sim.parallel import make_recipe, run_many


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


SMOKE = SCALES["smoke"]


class TestMixPopulation:
    def test_size_matches_scale(self):
        mixes = mix_population(SMOKE)
        assert len(mixes) == SMOKE.homo_mixes + SMOKE.hetero_mixes

    def test_cached_identity(self):
        a = mix_population(SMOKE)
        b = mix_population(SMOKE)
        assert a is b

    def test_homo_and_hetero_present(self):
        names = [m.name for m in mix_population(SMOKE)]
        assert any(n.startswith("homo") for n in names)
        assert any(n.startswith("hetero") for n in names)

    def test_mt_workload_cached(self):
        a = mt_workload("vips", SMOKE)
        b = mt_workload("vips", SMOKE)
        assert a is b
        assert len(a[0]) == SMOKE.mt_accesses


def run_one(*args, **kwargs):
    return run_many([make_recipe(*args, **kwargs)])[0]


class TestCachedRun:
    """One figure run: a recipe from ``make_recipe``, resolved through
    ``run_many``."""

    def test_memoised_per_recipe(self):
        wl = mix_population(SMOKE)[0]
        r1 = run_one(wl, "inclusive", "lru", l2="256KB")
        r2 = run_one(wl, "inclusive", "lru", l2="256KB")
        assert r1 is r2

    def test_distinct_recipes_distinct_runs(self):
        wl = mix_population(SMOKE)[0]
        r1 = run_one(wl, "inclusive", "lru", l2="256KB")
        r2 = run_one(wl, "inclusive", "lru", l2="512KB")
        assert r1 is not r2

    def test_belady_policy_forces_lockstep(self):
        wl = mix_population(SMOKE)[0]
        r = run_one(wl, "inclusive", "belady", l2="256KB")
        # lockstep: cycles == total accesses
        assert r.cycles == wl.total_accesses()

    def test_scheme_kwargs_in_key(self):
        wl = mix_population(SMOKE)[0]
        r1 = run_one(wl, "ziv:notinprc", "lru",
                     scheme_kwargs={"round_robin": True})
        r2 = run_one(wl, "ziv:notinprc", "lru",
                     scheme_kwargs={"round_robin": False})
        assert r1 is not r2


class TestResolve:
    def test_results_keep_labels_and_order(self):
        mixes = mix_population(SMOKE)[:2]
        grid = {
            "baseline": baseline_recipes(mixes),
            "first": baseline_recipes(mixes[:1]),
        }
        runs = resolve(grid)
        assert list(runs) == ["baseline", "first"]
        assert [r.workload for r in runs["baseline"]] == [
            wl.name for wl in mixes
        ]
        assert runs["first"][0] is runs["baseline"][0]

    def test_empty_grid(self):
        assert resolve({}) == {}


class TestAggregation:
    """The figures normalise with the ``repro.sim.metrics`` pair."""

    def test_speedup_summary_self_is_one(self):
        mixes = mix_population(SMOKE)[:2]
        runs = run_many(baseline_recipes(mixes))
        s = speedup_summary(normalized_speedups(runs, runs))
        assert s["mean"] == pytest.approx(1.0)
        assert s["min"] == pytest.approx(1.0)

    def test_normalized_counts_self_is_one(self):
        mixes = mix_population(SMOKE)[:2]
        runs = run_many(baseline_recipes(mixes))
        assert normalized_counts(runs, runs, "llc_misses") == 1.0
        assert normalized_counts(runs, runs, "l2_misses") == 1.0


class TestScaleResolution:
    def test_explicit_scale_object(self):
        assert get_scale(SMOKE) is SMOKE

    def test_name_lookup(self):
        assert get_scale("full") == SCALES["full"]


class TestAsciiChart:
    def fig(self):
        f = FigureResult("F", "demo", ["l2", "scheme", "speedup"])
        f.add("256KB", "I", 1.0)
        f.add("256KB", "NI", 1.25)
        return f

    def test_bars_scale_to_max(self):
        out = bar_chart(self.fig(), value_col=2)
        lines = out.splitlines()
        assert "1.250" in lines[-1]
        assert lines[-1].count("#") > lines[-2].count("#")

    def test_baseline_marker(self):
        out = bar_chart(self.fig(), value_col=2, baseline=1.0)
        assert "|" in out

    def test_empty_figure(self):
        f = FigureResult("F", "t", ["a"])
        assert "no numeric rows" in bar_chart(f, value_col=0)
