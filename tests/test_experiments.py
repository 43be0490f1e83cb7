"""Experiment modules produce well-formed figure rows at smoke scale.

These are plumbing tests: every figure module must run end-to-end and
yield the row structure its bench prints.  The heavyweight figures reuse
the process-wide simulation cache, so the whole file stays fast.
"""

import sys

import pytest

from repro.experiments import (
    SCALES,
    TABLES,
    FigureResult,
    clear_caches,
    get_scale,
    mix_population,
    run_figure,
)
from repro.experiments import ablations, common
from repro.sim.parallel import make_recipe, run_many

# Figures grouped by how heavy they are at smoke scale.
LIGHT = (
    "table1",
    "fig01_motivation",
    "fig03_llc_misses",
    "fig04_l2_misses",
)


class TestScales:
    def test_known_scales(self):
        for name in ("smoke", "quick", "standard", "full"):
            assert name in SCALES

    def test_get_scale_default_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale(None) == SCALES["smoke"]

    def test_get_scale_rejects_unknown(self):
        with pytest.raises(ValueError):
            get_scale("enormous")

    def test_run_figure_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_figure("fig99_nonexistent")


class TestFigureResult:
    def test_format_table(self):
        f = FigureResult("F", "t", ["a", "b"])
        f.add("x", 1.5)
        out = f.format_table()
        assert "x" in out and "1.500" in out

    def test_row_map(self):
        f = FigureResult("F", "t", ["a", "b", "c"])
        f.add("k1", "k2", 3)
        assert f.row_map(2) == {("k1", "k2"): (3,)}


@pytest.mark.parametrize("figure", LIGHT)
def test_light_figures_run(figure):
    result = run_figure(figure, "smoke")
    assert isinstance(result, FigureResult)
    assert result.rows
    assert all(len(r) == len(result.columns) for r in result.rows)


def test_fig02_inclusion_victims_smoke():
    result = run_figure("fig02_inclusion_victims", "smoke")
    rows = result.row_map(2)
    # the I-LRU 256KB cell is the normalisation basis
    assert rows[("256KB", "I-LRU")][0] == pytest.approx(1.0)


def test_fig08_has_all_schemes():
    result = run_figure("fig08_lru_perf", "smoke")
    schemes = {r[1] for r in result.rows}
    assert "ZIV-LikelyDead" in schemes and "QBS" in schemes
    # every ZIV row reports zero inclusion victims
    for row in result.rows:
        if row[1].startswith("ZIV"):
            assert row[5] == 0


def test_fig18_cdf_monotone():
    result = run_figure("fig18_reloc_intervals", "smoke")
    by_design = {}
    for design, bucket, frac in result.rows:
        by_design.setdefault(design, []).append(frac)
    for fracs in by_design.values():
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)


def test_fig19_energy_rows():
    result = run_figure("fig19_energy", "smoke")
    assert len(result.rows) == 3
    for row in result.rows:
        assert row[1] >= 0.0  # relocation EPI is non-negative


def test_all_figures_listed():
    """The registry holds the 17 paper figures and tables, each named
    after the module of its table, then the seven ablation studies."""
    names = list(TABLES)
    for name in names[:17]:
        assert TABLES[name][1].__module__ == f"repro.experiments.{name}"
    assert names[17:] == [
        "property_ladder", "round_robin", "char_threshold", "oracle_gap",
        "tla_family", "penalty_sensitivity", "prefetch_interplay",
    ]


# ---------------------------------------------------------------------------
# One grid per table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ziv_result():
    """One real ZIV result with relocations, so that Fig. 18 has rows."""
    wl = mix_population(get_scale("smoke"))[-1]
    [result] = run_many(
        [make_recipe(wl, "ziv:mrlikelydead", "hawkeye", l2="512KB")]
    )
    assert result.scheme_stats["reloc_intervals"] > 0
    return result


def test_every_figure_module_has_one_grid():
    for grid, table in TABLES.values():
        module = sys.modules[table.__module__]
        assert callable(grid) and callable(table)
        for gone in ("run", "recipes", "main"):
            assert not hasattr(module, gone), (module.__name__, gone)


@pytest.mark.parametrize("name", TABLES)
def test_table_reads_only_its_grid(name, ziv_result, monkeypatch):
    grid, table = TABLES[name]
    runs = {
        label: [ziv_result] * len(recipes)
        for label, recipes in grid("smoke").items()
    }

    def forbidden(*_args, **_kwargs):
        raise AssertionError(f"{name}: table() resolved a run")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro.experiments") \
                or module is sys.modules["repro.sim.parallel"]:
            for attr in ("resolve", "run_many", "lookup_result"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    result = table(runs)
    assert result.rows
    assert all(len(row) == len(result.columns) for row in result.rows)


@pytest.mark.parametrize("name", TABLES)
def test_run_figure_resolves_its_grid_in_one_call(name, ziv_result,
                                                  monkeypatch):
    calls = []

    def spy(recipes, jobs=None, labels=None, heartbeat=None):
        calls.append([recipe.key() for recipe in recipes])
        return [ziv_result] * len(recipes)

    monkeypatch.setattr(common, "run_many", spy)
    run_figure(name, "smoke")
    grid = TABLES[name][0]("smoke")
    assert calls == [
        [recipe.key() for recipes in grid.values() for recipe in recipes]
    ]


def test_oracle_gap_is_a_lockstep_grid_of_recipes(tmp_path, monkeypatch):
    """The oracle design runs from a recipe like the designs it is
    compared with: one ``run_many`` call, lock-step throughout, and a
    second resolution simulates nothing."""
    from repro.obs.ledger import read_ledger
    from repro.sim.parallel import clear_memo

    grid = ablations.oracle_gap_grid("smoke")
    assert list(grid) == list(ablations.ORACLE_GAP)
    assert {r.scheduling for recipes in grid.values() for r in recipes} \
        == {"lockstep"}
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memo()
    try:
        first = run_figure("oracle_gap", "smoke")
        fresh = len(read_ledger())
        assert fresh == sum(len(recipes) for recipes in grid.values())
        clear_memo()
        assert run_figure("oracle_gap", "smoke").rows == first.rows
        assert run_figure("oracle_gap", "smoke").rows == first.rows
        again = [record.source for record in read_ledger()][fresh:]
        assert sorted(set(again)) == ["disk", "memo"]
    finally:
        clear_memo()
