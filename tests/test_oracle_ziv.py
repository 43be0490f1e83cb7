"""Oracle-assisted ZIV (the paper's Section VI future-work oracle)."""

import random

import pytest

from tests.conftest import tiny_config

from repro.cache.replacement import NextUseOracle
from repro.config_io import RecipeError, recipe_from_dict, recipe_to_dict
from repro.core.oracle_ziv import OracleZIVScheme
from repro.hierarchy.cmp import CacheHierarchy
from repro.schemes import make_scheme
from repro.sim.engine import Simulation
from repro.sim.parallel import make_recipe
from repro.sim.telemetry import parse_telemetry_spec
from repro.sim.trace import CoreTrace, TraceRecord, Workload, lockstep_stream


def circular_workload(cores=2, n=2000, footprint=12):
    traces = []
    for c in range(cores):
        recs = [
            TraceRecord(1, (c + 1) * 4096 + (i % footprint), False, 3)
            for i in range(n)
        ]
        traces.append(CoreTrace(recs, f"circ{c}"))
    return Workload(traces, "circ")


def random_workload(seed):
    """Two cores, 400 reads each, over 24 blocks."""
    rng = random.Random(seed)
    traces = [
        CoreTrace([TraceRecord(1, 4096 + rng.randrange(24), False, 3)
                   for _ in range(400)], f"rand{c}")
        for c in range(2)
    ]
    return Workload(traces, "rand")


def run_oracle(cfg=None, wl=None):
    cfg = cfg or tiny_config(cores=2, l2=(1, 3), llc=(2, 2, 3))
    wl = wl or circular_workload()
    oracle = NextUseOracle(lockstep_stream(wl))
    h = CacheHierarchy(cfg, OracleZIVScheme(oracle), llc_policy="lru")
    return Simulation(h, wl, scheduling="lockstep").run(), h


class TestOracleZIV:
    def test_name_and_guarantee(self):
        result, h = run_oracle()
        assert result.scheme == "ziv:oracle"
        assert result.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()

    def test_relocations_happen_under_pressure(self):
        """Hot private-resident blocks age to the LLC LRU position while
        still privately cached -> the oracle design must relocate (or
        re-victimise in-set) instead of back-invalidating."""
        traces = []
        for c in range(2):
            base = (c + 1) * 4096
            recs = []
            for i in range(3000):
                if i % 2:
                    recs.append(TraceRecord(1, base + (i // 2) % 64, False, 7))
                else:
                    recs.append(TraceRecord(1, base + 8000 + i % 3, False, 9))
            traces.append(CoreTrace(recs, f"hot{c}"))
        wl = Workload(traces, "hotstream")
        result, h = run_oracle(wl=wl)
        assert (
            result.stats.relocations + result.stats.relocation_same_set > 0
        )
        assert result.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()

    def test_every_relocation_branch_is_reached(self):
        """The oracle's pick sits in the victim's own set (evicted in
        place), a relocated block is moved again, and a full home bank
        falls back to the other bank."""
        result, h = run_oracle(wl=random_workload(seed=4))
        stats = result.stats
        assert stats.relocation_same_set > 0
        assert stats.relocations_rechained > 0
        assert stats.relocations_cross_bank > 0
        assert stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()
        assert h.directory_consistent()

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_cross_bank_fallback_takes_an_invalid_set_first(self, seed):
        """Four one-set banks of two ways: a home bank whose blocks are
        all privately cached falls back across banks, to an invalid set
        where one exists and else to the oracle's NotInPrC pick, as
        ``ziv:notinprc`` does.  Looking for NotInPrC blocks alone, these
        workloads find none in any bank."""
        cfg = tiny_config(cores=2, l1=(1, 1), l2=(1, 2), llc=(4, 1, 2))
        cfg = cfg.replace(
            telemetry=parse_telemetry_spec("100,events=relocation"))
        wl = random_workload(seed)
        h = CacheHierarchy(cfg, OracleZIVScheme(
            NextUseOracle(lockstep_stream(wl))), llc_policy="lru")
        result = Simulation(h, wl, scheduling="lockstep").run()
        fallbacks = {e.data["property"] for e in result.telemetry.events
                     if e.kind == "cross_bank_fallback"}
        assert fallbacks == {"invalid", "oracle"}
        assert result.stats.relocations_cross_bank > 0
        assert result.stats.inclusion_victims_llc == 0
        assert h.inclusion_holds()
        assert h.directory_consistent()

    def test_directory_consistent(self):
        _result, h = run_oracle()
        assert h.directory_consistent()

    def test_not_worse_than_random_property_on_circular(self):
        """The oracle-assisted design should not lose to the plain
        NotInPrC design on a MIN-friendly circular workload."""
        from repro.schemes import make_scheme

        wl = circular_workload(n=4000, footprint=14)
        cfg = tiny_config(cores=2, l2=(1, 3), llc=(2, 2, 3))
        result, _h = run_oracle(cfg, wl)
        cfg2 = tiny_config(cores=2, l2=(1, 3), llc=(2, 2, 3))
        h2 = CacheHierarchy(cfg2, make_scheme("ziv:notinprc"),
                            llc_policy="lru")
        wl2 = circular_workload(n=4000, footprint=14)
        base = Simulation(h2, wl2, scheduling="lockstep").run()
        assert result.stats.llc_misses <= base.stats.llc_misses * 1.1

    def test_fifo_peak_reaches_the_stats(self):
        """Every relocation updates the stats' FIFO peak, those to a way
        the oracle picked included."""
        rng = random.Random(25)
        wl = Workload([
            CoreTrace([TraceRecord(1, 4096 + rng.randrange(17),
                                   rng.random() < 0.2, 3)
                       for _ in range(300)], f"fifo{c}")
            for c in range(2)
        ], "fifo")
        cfg = tiny_config(cores=2, l1=(1, 1), l2=(2, 2), llc=(1, 4, 4))
        result, _h = run_oracle(cfg, wl)
        assert result.scheme_stats["fifo_peak"] > 0
        assert (result.stats.relocation_fifo_peak
                == result.scheme_stats["fifo_peak"])


class TestOracleRecipe:
    """``ziv:oracle`` is a scheme name a recipe carries."""

    CONFIG = tiny_config(cores=2, l2=(1, 3), llc=(2, 2, 3))

    def test_it_needs_an_oracle_to_bind(self):
        scheme = make_scheme("ziv:oracle")
        with pytest.raises(ValueError, match="next-use oracle"):
            CacheHierarchy(self.CONFIG, scheme)

    def test_a_submitted_oracle_keyword_is_rejected(self):
        data = recipe_to_dict(make_recipe(circular_workload(), "ziv:oracle",
                                          config=self.CONFIG))
        data["scheme_kwargs"] = {"oracle": 5}
        with pytest.raises(RecipeError) as excinfo:
            recipe_from_dict(data)
        assert excinfo.value.field == "scheme"

    def test_every_builder_makes_it_lockstep(self):
        recipe = make_recipe(circular_workload(), "ziv:oracle",
                             scheduling="timing", config=self.CONFIG)
        assert recipe.scheduling == "lockstep"
        data = recipe_to_dict(recipe)
        data["scheduling"] = "timing"
        rebuilt = recipe_from_dict(data)
        assert rebuilt.scheduling == "lockstep"
        assert rebuilt.key() == recipe.key()

    def test_a_submitted_audit_section_stays_as_submitted(self, monkeypatch):
        data = recipe_to_dict(make_recipe(circular_workload(), "ziv:oracle",
                                          config=self.CONFIG))
        key = recipe_from_dict(data).key()
        monkeypatch.setenv("REPRO_AUDIT", "end")
        assert recipe_from_dict(data).key() == key

    def test_the_recipe_runs_the_hand_built_design(self):
        result, _h = run_oracle()
        recipe = make_recipe(circular_workload(), "ziv:oracle",
                             config=self.CONFIG)
        assert recipe.execute().stats == result.stats
