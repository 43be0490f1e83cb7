"""The parallel runner and the persistent result cache."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from tests.conftest import tiny_config

from repro.obs.ledger import read_ledger
from repro.sim.engine import Simulation, SimResult
from repro.sim.parallel import (
    RunRecipe,
    cache_dir,
    cache_enabled,
    cache_info,
    clear_memo,
    clear_result_cache,
    lookup_result,
    make_recipe,
    run_many,
)
from repro.sim.trace import CoreTrace, TraceRecord, Workload


def small_workloads(n=2, cores=2, length=200):
    out = []
    for k in range(n):
        traces = [
            CoreTrace(
                [TraceRecord(1, (c + 1) * 256 + (i * (k + 2)) % 40,
                             i % 5 == 0, i % 4) for i in range(length)]
            )
            for c in range(cores)
        ]
        out.append(Workload(traces, f"wl{k}"))
    return out


def grid_recipes():
    """The determinism grid the issue asks for: {inclusive, ziv, qbs} x
    {lru, srrip} over two workloads on the tiny machine."""
    cfg = tiny_config()
    return [
        RunRecipe(workload=wl, scheme=scheme, config=cfg, policy=policy)
        for scheme in ("inclusive", "ziv:notinprc", "qbs")
        for policy in ("lru", "srrip")
        for wl in small_workloads()
    ]


def summarise(result: SimResult) -> tuple:
    s = result.stats
    return (
        tuple(c.cycles for c in s.cores),
        tuple(c.instructions for c in s.cores),
        s.llc_misses,
        s.l2_misses,
        s.inclusion_victims_llc,
        s.relocations,
        s.directory_evictions,
    )


class TestDeterminism:
    def test_parallel_matches_serial(self, monkeypatch, tmp_path):
        """jobs=4 must merge to byte-identical results vs the serial loop,
        cold (no cache) in both cases."""
        monkeypatch.setenv("REPRO_CACHE", "off")
        recipes = grid_recipes()
        clear_memo()
        serial = run_many(recipes)
        clear_memo()
        parallel = run_many(recipes, jobs=4)
        assert [summarise(r) for r in serial] == [
            summarise(r) for r in parallel
        ]
        # Stronger: identical over the full pickled payload.
        for a, b in zip(serial, parallel):
            assert pickle.dumps(summarise(a)) == pickle.dumps(summarise(b))

    def test_submission_order_preserved(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        recipes = grid_recipes()
        clear_memo()
        results = run_many(recipes, jobs=2)
        for recipe, result in zip(recipes, results):
            assert result.workload == recipe.workload.name
            assert result.scheme == recipe.scheme
            assert result.policy == recipe.policy

    def test_duplicate_recipes_share_one_result(self, monkeypatch,
                                                 tmp_path):
        """A duplicate -- a distinct recipe object with the same content
        -- shares its primary's result and resolves as "memo" right
        after it, whatever ``jobs`` is: one ledger record and one
        heartbeat, carrying its own label, per submitted recipe."""
        wl_a, wl_b = small_workloads(2)
        a = RunRecipe(workload=wl_a, scheme="inclusive", config=tiny_config())
        a_again = RunRecipe(workload=wl_a, scheme="inclusive",
                            config=tiny_config())
        b = RunRecipe(workload=wl_b, scheme="inclusive", config=tiny_config())
        want = {a.key(): ["run", "memo"], b.key(): ["run"]}

        def by_key(pairs):
            out = {}
            for key, source in pairs:
                out.setdefault(key, []).append(source)
            return out

        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / str(jobs)))
            clear_memo()
            beats = []
            first, again, other = run_many([a, a_again, b], jobs=jobs,
                                            labels=["a", "a again", "b"],
                                            heartbeat=beats.append)
            assert first is again and other is not first
            assert sorted(p.label for p in beats) == ["a", "a again", "b"]
            assert by_key((r.recipe_key, r.source)
                          for r in read_ledger()) == want, jobs
            assert by_key((p.key, p.source) for p in beats) == want, jobs
            assert beats[-1].completed == beats[-1].total == 3


class UnpicklableTrace(CoreTrace):
    """A trace that refuses to cross a process boundary by pickle."""

    def __reduce__(self):
        raise pickle.PicklingError("this trace must not be pickled")


class TestDispatch:
    def test_fork_workers_inherit_the_recipes(self, monkeypatch):
        """Under fork the pending recipes are inherited, never pickled:
        a workload that cannot be pickled still runs on two workers and
        matches the serial loop."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        monkeypatch.setenv("REPRO_MP_START", "fork")
        monkeypatch.setenv("REPRO_CACHE", "off")
        cfg = tiny_config()
        recipes = [
            RunRecipe(
                workload=Workload(
                    [UnpicklableTrace(t.records, t.name) for t in wl.traces],
                    wl.name,
                ),
                scheme=scheme,
                config=cfg,
            )
            for scheme in ("inclusive", "ziv:notinprc")
            for wl in small_workloads()
        ]
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(recipes[0])
        clear_memo()
        serial = run_many(recipes)
        clear_memo()
        parallel = run_many(recipes, jobs=2)
        assert [summarise(r) for r in parallel] == [
            summarise(r) for r in serial
        ]

    def test_spawn_matches_serial(self, monkeypatch):
        """Spawned workers receive the pending recipes by pickle, once
        each, and merge to the serial loop's results."""
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        monkeypatch.setenv("REPRO_CACHE", "off")
        recipes = grid_recipes()
        clear_memo()
        serial = run_many(recipes)
        clear_memo()
        parallel = run_many(recipes, jobs=2)
        assert [summarise(r) for r in parallel] == [
            summarise(r) for r in serial
        ]


class TestRecipeKeys:
    def test_key_is_stable_and_content_based(self):
        wl = small_workloads(1)[0]
        cfg = tiny_config()
        r1 = RunRecipe(workload=wl, scheme="inclusive", config=cfg)
        r2 = RunRecipe(workload=wl, scheme="inclusive", config=tiny_config())
        assert r1.key() == r2.key()

    def test_key_varies_with_recipe(self):
        wl = small_workloads(1)[0]
        cfg = tiny_config()
        base = RunRecipe(workload=wl, scheme="inclusive", config=cfg)
        others = [
            RunRecipe(workload=wl, scheme="qbs", config=cfg),
            RunRecipe(workload=wl, scheme="inclusive", config=cfg,
                      policy="srrip"),
            RunRecipe(workload=small_workloads(2)[1], scheme="inclusive",
                      config=cfg),
            RunRecipe(workload=wl, scheme="inclusive", config=cfg,
                      scheduling="lockstep"),
        ]
        keys = {base.key()} | {o.key() for o in others}
        assert len(keys) == 5

    def test_recipe_pickles(self):
        recipe = grid_recipes()[0]
        clone = pickle.loads(pickle.dumps(recipe))
        assert clone.key() == recipe.key()

    def test_make_recipe_belady_forces_lockstep(self):
        wl = small_workloads(1)[0]
        r = make_recipe(wl, "inclusive", policy="belady")
        assert r.scheduling == "lockstep"


class TestDiskCache:
    def test_cold_miss_then_warm_hit(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        wl = small_workloads(1)[0]
        recipe = RunRecipe(workload=wl, scheme="inclusive",
                           config=tiny_config())
        clear_memo()
        assert cache_info()["entries"] == 0
        first = run_many([recipe])[0]
        assert cache_info()["entries"] == 1
        # Warm: a fresh process would hit disk; simulate by clearing the
        # memo and forbidding execution.
        clear_memo()
        monkeypatch.setattr(
            RunRecipe, "execute",
            lambda self: pytest.fail("cache miss on warm run"),
        )
        second = run_many([recipe])[0]
        assert summarise(first) == summarise(second)

    def test_cache_off_bypasses_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        wl = small_workloads(1)[0]
        recipe = RunRecipe(workload=wl, scheme="inclusive",
                           config=tiny_config())
        clear_memo()
        run_many([recipe])
        assert cache_info()["entries"] == 0

    def test_evicted_key_resolves_from_disk(self, monkeypatch, tmp_path):
        """Past ``MEMO_ENTRIES`` the oldest result leaves the memo: it
        comes back from the disk cache as a ``disk`` resolution, and
        with the disk cache off it runs again."""
        from repro.sim import parallel

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(parallel, "MEMO_ENTRIES", 2)
        clear_memo()
        recipes = [RunRecipe(workload=wl, scheme="inclusive",
                             config=tiny_config())
                   for wl in small_workloads(3)]
        keys = [r.key() for r in recipes]
        first = run_many(recipes)
        assert list(parallel._MEMO) == keys[1:]
        again = run_many(recipes[:1])
        assert summarise(again[0]) == summarise(first[0])
        assert read_ledger()[-1].source == "disk"
        assert list(parallel._MEMO) == [keys[2], keys[0]]
        monkeypatch.setenv("REPRO_CACHE", "off")
        ran = []
        execute = parallel._execute_recipe
        monkeypatch.setattr(parallel, "_execute_recipe",
                            lambda item: ran.append(item[0]) or execute(item))
        assert summarise(run_many(recipes[1:2])[0]) == summarise(first[1])
        assert ran == keys[1:2]
        clear_memo()

    def test_memo_bound_holds_under_racing_threads(self):
        """Threads that file entries side by side, more of them than
        cores and switching often (as thread-mode service workers build
        Belady oracles), never fail a drop and leave the memo within
        its bound."""
        import sys
        import threading
        from collections import OrderedDict

        from repro.sim.parallel import _remember

        memo: OrderedDict = OrderedDict()
        errors: list = []

        def fill(t: int) -> None:
            try:
                for i in range(2000):
                    _remember(memo, (t, i), i, 8)
            except Exception as exc:  # noqa: BLE001 - the test reports it
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 8

    def test_corrupt_entry_is_dropped(self, monkeypatch, tmp_path):
        """An unreadable entry -- garbage, or a real result pickle cut
        short -- is a miss: the recipe runs fresh and its result
        replaces the entry."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        wl = small_workloads(1)[0]
        recipe = RunRecipe(workload=wl, scheme="inclusive",
                           config=tiny_config())
        clear_memo()
        first = run_many([recipe])[0]
        [entry] = cache_dir().glob("*.pkl")
        whole = entry.read_bytes()
        for corrupt in (b"not a pickle", whole[:len(whole) // 2]):
            entry.write_bytes(corrupt)
            clear_memo()
            result = run_many([recipe])[0]  # falls back to a fresh run
            assert summarise(result) == summarise(first)
            clear_memo()
            stored, source = lookup_result(recipe.key())
            assert source == "disk"
            assert summarise(stored) == summarise(first)

    def test_clear_result_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        wl = small_workloads(1)[0]
        clear_memo()
        run_many(
            [RunRecipe(workload=wl, scheme="inclusive", config=tiny_config())]
        )
        assert clear_result_cache() == 1
        assert cache_info()["entries"] == 0

    def test_result_pickle_roundtrip(self):
        wl = small_workloads(1)[0]
        recipe = RunRecipe(workload=wl, scheme="ziv:notinprc",
                           config=tiny_config())
        result = recipe.execute()
        clone = pickle.loads(pickle.dumps(result))
        assert summarise(clone) == summarise(result)
        assert clone.scheme == result.scheme


class TestEmptyTraces:
    def test_idle_core_does_not_raise(self, tiny):
        """Regression: a core with an empty trace must simulate cleanly
        with zero cycles, not raise on the first heap pop."""
        wl = small_workloads(1)[0]
        traces = [wl.traces[0], CoreTrace([])]
        idle_wl = Workload(traces, "half-idle")
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme

        h = CacheHierarchy(tiny, make_scheme("inclusive"), llc_policy="lru")
        result = Simulation(h, idle_wl).run()
        assert result.stats.cores[0].cycles > 0
        assert result.stats.cores[1].cycles == 0
        assert result.stats.cores[1].instructions == 0

    def test_all_idle(self, tiny):
        wl = Workload([CoreTrace([]), CoreTrace([])], "all-idle")
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme

        h = CacheHierarchy(tiny, make_scheme("inclusive"), llc_policy="lru")
        result = Simulation(h, wl).run()
        assert all(c.cycles == 0 for c in result.stats.cores)
