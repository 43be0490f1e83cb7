"""Fleet observability: run ledger, phase times, metrics export and
the perf-regression gate (`repro.obs`)."""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import signal
import time

import pytest

from tests.conftest import tiny_config

from repro.obs.ledger import (
    LEDGER_VERSION,
    LedgerRecord,
    append_record,
    config_digest,
    ledger_path,
    read_ledger,
    record_from_result,
)
from repro.obs.registry import (
    LedgerAggregate,
    MetricsRegistry,
    parse_prometheus,
    registry_from_ledger,
)
from repro.obs.regress import (
    Comparison,
    compare_bench,
    compare_ledger,
    compare_value,
    metric_direction,
    run_regress,
)
from repro.params import ConfigError, TelemetryParams
from repro.sim.engine import run_workload
from repro.sim.parallel import (
    RunRecipe,
    _execute_recipe,
    clear_memo,
    make_recipe,
    run_many,
)
from repro.sim.report import counter_attribution
from repro.sim.trace import CoreTrace, TraceRecord, Workload


def make_workload(k: int = 0, cores: int = 2, length: int = 400) -> Workload:
    traces = [
        CoreTrace(
            [TraceRecord(1, (c + 1) * 256 + (i * (k + 2)) % 40,
                         i % 5 == 0, i % 4) for i in range(length)]
        )
        for c in range(cores)
    ]
    return Workload(traces, f"obs-wl{k}")


#: One wrong-typed value per LedgerRecord annotation: a bool is not an
#: int, and an int is not a bool.
WRONG_TYPED = {
    "int": True,
    "float": "2.0",
    "str": 5,
    "bool": 1,
    "dict[str, float]": 5,
}


def make_record(**overrides) -> LedgerRecord:
    base = dict(
        version=LEDGER_VERSION,
        ts=1000.0,
        recipe_key="ab" * 32,
        workload="wl0",
        workload_fingerprint="fp",
        scheme="inclusive",
        policy="lru",
        scheduling="timing",
        engine="object",
        config_digest="cd" * 32,
        source="run",
        cache_hit=False,
        trace_path="",
        resumed_from="",
        wall_s=2.0,
        accesses=100000,
        accesses_per_s=50000.0,
        cycles=123456,
        audit_violations=0,
        telemetry_samples=0,
        telemetry_events=0,
        phases={},
        host_cpus=8,
    )
    base.update(overrides)
    return LedgerRecord(**base)


@pytest.fixture
def obs_cache(tmp_path, monkeypatch):
    """Per-test ledger/cache isolation on top of the session-wide one."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memo()
    yield tmp_path
    clear_memo()


# ---------------------------------------------------------------------------
# Ledger schema and round-trips
# ---------------------------------------------------------------------------


class TestLedgerRecord:
    def test_json_line_round_trip_is_bit_identical(self):
        rec = make_record(phases={"access_loop": 0.25})
        line = rec.to_json_line()
        assert LedgerRecord.from_json_line(line) == rec
        assert LedgerRecord.from_json_line(line).to_json_line() == line
        assert "\n" not in line

    @pytest.mark.parametrize("phases", [{}, {"walk": 0.1, "access_loop": 0.25}])
    def test_json_line_equals_the_asdict_reference(self, phases):
        rec = make_record(phases=phases, wall_s=0.1,
                          accesses_per_s=1e6 / 3)
        assert rec.to_json_line() == json.dumps(dataclasses.asdict(rec),
                                                sort_keys=True)

    def test_from_dict_rejects_unknown_keys(self):
        data = make_record().to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            LedgerRecord.from_dict(data)

    def test_from_dict_rejects_missing_keys(self):
        data = make_record().to_dict()
        del data["engine"]
        with pytest.raises(ConfigError, match="needs"):
            LedgerRecord.from_dict(data)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(LedgerRecord)]
    )
    def test_from_dict_rejects_a_wrong_typed_value(self, field):
        annotation = {
            f.name: f.type for f in dataclasses.fields(LedgerRecord)
        }[field]
        data = make_record().to_dict()
        data[field] = WRONG_TYPED[annotation]
        with pytest.raises(ConfigError, match=repr(field)):
            LedgerRecord.from_dict(data)

    def test_from_dict_checks_phase_seconds(self):
        data = make_record().to_dict()
        data["phases"] = {"walk": "slow"}
        with pytest.raises(ConfigError, match="phases"):
            LedgerRecord.from_dict(data)
        data["phases"] = {"walk": True}
        with pytest.raises(ConfigError, match="phases"):
            LedgerRecord.from_dict(data)

    def test_an_int_stands_for_a_float(self):
        data = make_record().to_dict()
        data.update(wall_s=2, ts=1000, phases={"walk": 1})
        rec = LedgerRecord.from_dict(data)
        assert (rec.wall_s, rec.ts, rec.phases) == \
            (2, 1000, {"walk": 1})

    def test_a_version_1_line_reads_profile_phases_as_phases(self):
        data = make_record(version=1).to_dict()
        data["profile_phases"] = data.pop("phases")
        data["profile_phases"]["access_loop"] = 0.5
        rec = LedgerRecord.from_json_line(json.dumps(data, sort_keys=True))
        assert (rec.version, rec.phases) == (1, {"access_loop": 0.5})
        # Only version 1 had the old name.
        data["version"] = LEDGER_VERSION
        with pytest.raises(ConfigError, match="profile_phases"):
            LedgerRecord.from_dict(data)

    def test_short_key(self):
        assert make_record(recipe_key="0123456789abcdef").short_key == \
            "01234567"
        assert make_record(recipe_key="").short_key == "--------"

    def test_config_digest_is_stable_and_config_sensitive(self):
        cfg = tiny_config()
        assert config_digest(cfg) == config_digest(tiny_config())
        assert config_digest(cfg) != config_digest(
            cfg.replace(engine="fast")
        )


# ---------------------------------------------------------------------------
# Ledger appends from the runner layers
# ---------------------------------------------------------------------------


class TestLedgerAppends:
    def test_run_workload_appends_a_direct_record(self, obs_cache):
        cfg = tiny_config()
        wl = make_workload()
        result = run_workload(cfg, wl, "inclusive")
        records = read_ledger()
        assert len(records) == 1
        rec = records[0]
        assert rec.source == "direct"
        assert not rec.cache_hit
        assert rec.workload == wl.name
        assert rec.scheme == result.scheme
        assert rec.engine == "object"
        assert rec.accesses == result.stats.total_accesses
        assert rec.cycles == result.cycles
        assert rec.wall_s > 0
        assert rec.accesses_per_s > 0
        assert rec.recipe_key
        assert rec.config_digest == config_digest(cfg)
        assert rec.version == LEDGER_VERSION
        assert rec.host_cpus == (os.cpu_count() or 1)

    def test_direct_and_recipe_lines_agree_on_what_ran(self, obs_cache):
        """A direct run's line and the ``run_many`` line of the same
        recipe carry one recipe key and one config digest: both digest
        the config with its telemetry baked in."""
        cfg = tiny_config()
        wl = make_workload()
        telemetry = TelemetryParams(enabled=True, interval=500)
        run_workload(cfg, wl, "inclusive", telemetry=telemetry)
        run_many([make_recipe(wl, "inclusive", config=cfg,
                              telemetry=telemetry)])
        direct, fleet = read_ledger()
        assert (direct.source, fleet.source) == ("direct", "run")
        assert direct.recipe_key == fleet.recipe_key
        assert direct.config_digest == fleet.config_digest
        assert direct.config_digest == config_digest(
            cfg.replace(telemetry=telemetry))

    def test_run_many_appends_run_then_memo_records(self, obs_cache):
        cfg = tiny_config()
        recipes = [
            RunRecipe(make_workload(0), "inclusive", cfg),
            RunRecipe(make_workload(1), "inclusive", cfg),
        ]
        run_many(recipes)
        first = read_ledger()
        assert [r.source for r in first] == ["run", "run"]
        assert all(r.wall_s > 0 and r.accesses_per_s > 0 for r in first)
        assert {r.recipe_key for r in first} == {r.key() for r in recipes}
        assert all(
            r.workload_fingerprint == recipe.workload.fingerprint()
            for r, recipe in zip(first, recipes)
        )
        run_many(recipes)
        again = read_ledger()
        assert [r.source for r in again[2:]] == ["memo", "memo"]
        assert all(r.cache_hit for r in again[2:])
        assert all(r.wall_s == 0 and r.accesses_per_s == 0
                   for r in again[2:])

    def test_a_hit_record_digests_its_recipe_config_once(self, obs_cache,
                                                         monkeypatch):
        """Every field of a hit's record but ``ts`` is fixed by its
        recipe and result; the config digest is derived once per
        recipe, not once per record."""
        from repro.obs import ledger

        cfg = tiny_config()
        recipe = RunRecipe(make_workload(0), "inclusive", cfg)
        result = run_many([recipe])[0]
        expected = config_digest(cfg)
        digests = []
        monkeypatch.setattr(
            ledger, "config_digest",
            lambda config: digests.append(config) or expected)
        twin = RunRecipe(make_workload(0), "inclusive", cfg)
        run_many([recipe, recipe, twin, twin])
        assert len(digests) == 1
        hits = read_ledger()[1:]
        assert [r.source for r in hits] == ["memo"] * 4
        for hit in hits:
            line = hit.to_dict()
            del line["ts"]
            assert line == {
                "version": LEDGER_VERSION,
                "recipe_key": recipe.key(),
                "workload": result.workload,
                "workload_fingerprint": recipe.workload.fingerprint(),
                "scheme": result.scheme,
                "policy": result.policy,
                "scheduling": "timing",
                "engine": cfg.engine,
                "config_digest": expected,
                "source": "memo",
                "cache_hit": True,
                "trace_path": "",
                "resumed_from": "",
                "wall_s": 0.0,
                "accesses": result.stats.total_accesses,
                "accesses_per_s": 0.0,
                "cycles": result.cycles,
                "audit_violations": 0,
                "telemetry_samples": 0,
                "telemetry_events": 0,
                "phases": {},
                "host_cpus": os.cpu_count() or 1,
            }

    def test_run_many_parallel_appends_in_parent_only(self, obs_cache):
        cfg = tiny_config()
        recipes = [
            RunRecipe(make_workload(k), "inclusive", cfg) for k in range(3)
        ]
        run_many(recipes, jobs=2)
        records = read_ledger()
        assert len(records) == 3
        assert all(r.source == "run" for r in records)
        assert {r.recipe_key for r in records} == {r.key() for r in recipes}

    def test_run_many_keeps_finished_work_when_a_later_recipe_fails(
        self, obs_cache
    ):
        # The fast engine cannot run qbs, so the bad recipe's worker
        # raises, in either submission order.  Both recipes start at
        # once on two workers, so the good one runs to completion even
        # when the error arrives first: it must be in the disk cache,
        # with exactly one "run" record in the ledger.
        from repro.sim.fast import UnsupportedConfigError
        from repro.sim.parallel import clear_result_cache, lookup_result

        cfg = tiny_config()
        good = RunRecipe(make_workload(0), "inclusive", cfg)
        bad = RunRecipe(make_workload(1), "qbs", cfg.replace(engine="fast"))
        for order in ([good, bad], [bad, good]):
            clear_memo()
            clear_result_cache()
            before = len(read_ledger())
            with pytest.raises(UnsupportedConfigError):
                run_many(order, jobs=2)
            clear_memo()
            hit = lookup_result(good.key())
            assert hit is not None and hit[1] == "disk"
            runs = [r for r in read_ledger()[before:]
                    if r.recipe_key == good.key() and r.source == "run"]
            assert len(runs) == 1

    def test_run_many_fails_cleanly_when_a_worker_dies(
        self, obs_cache, monkeypatch
    ):
        """A SIGKILLed worker (an OOM kill) fails the call with
        BrokenProcessPool instead of blocking it, and the cache and the
        ledger agree on what completed.  The call runs in a forked child
        so that a hang fails this test rather than the suite."""
        from repro.sim import parallel
        from repro.sim.parallel import lookup_result

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        cfg = tiny_config()
        recipes = [
            RunRecipe(make_workload(k), "inclusive", cfg) for k in range(4)
        ]
        # Last, so the victim starts only on a worker that has already
        # finished a recipe.
        doomed = recipes[-1].key()
        # Forked workers inherit the patched execution layer.
        monkeypatch.setenv("REPRO_MP_START", "fork")
        monkeypatch.setattr(parallel, "_execute_recipe",
                            functools.partial(_die_on_key, doomed))
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_report_run_many, args=(recipes, send))
        child.start()
        send.close()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("run_many still blocked 30 s after a worker died")
        assert receive.poll() and receive.recv() == "BrokenProcessPool"
        stored = [r.key() for r in recipes
                  if lookup_result(r.key()) is not None]
        runs = [r.recipe_key for r in read_ledger() if r.source == "run"]
        assert stored and doomed not in stored
        # One "run" record per stored result, and none without one.
        assert sorted(runs) == sorted(stored)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_many_stores_nothing_when_the_disk_is_full(
        self, obs_cache, monkeypatch, jobs
    ):
        """A cache write that fails (ENOSPC) fails the call with that
        error and leaves the result in neither the disk cache nor the
        memo, and the ledger without a "run" record.  A retry once the
        disk has room runs the recipe fresh."""
        import errno

        from repro.sim import parallel
        from repro.sim.parallel import lookup_result, store_result

        def full_disk(key, result):
            raise OSError(errno.ENOSPC, "No space left on device")

        cfg = tiny_config()
        recipes = [
            RunRecipe(make_workload(k), "inclusive", cfg)
            for k in range(jobs)
        ]
        monkeypatch.setattr(parallel, "store_result", full_disk)
        with pytest.raises(OSError, match="No space left"):
            run_many(recipes, jobs=jobs)
        assert all(lookup_result(r.key()) is None for r in recipes)
        assert [r for r in read_ledger() if r.source == "run"] == []
        monkeypatch.setattr(parallel, "store_result", store_result)
        run_many(recipes, jobs=jobs)
        assert sorted((r.recipe_key, r.source) for r in read_ledger()) == \
            sorted((r.key(), "run") for r in recipes)

    def test_repro_ledger_off_suppresses_appends(self, obs_cache,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "off")
        run_workload(tiny_config(), make_workload(), "inclusive")
        assert read_ledger() == []
        assert not ledger_path().exists()

    def test_append_creates_a_missing_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "ledger.jsonl"
        assert append_record(make_record(), path=path)
        assert append_record(make_record(ts=2000.0), path=path)
        assert [r.ts for r in read_ledger(path)] == [1000.0, 2000.0]

    def test_malformed_lines_are_skipped_not_fatal(self, obs_cache):
        append_record(make_record())
        with open(ledger_path(), "a") as fh:
            fh.write("not json at all\n")
        append_record(make_record(ts=2000.0))
        records = read_ledger()
        assert [r.ts for r in records] == [1000.0, 2000.0]
        assert records.skipped == 1
        with pytest.raises(ConfigError):
            list(__import__("repro.obs.ledger", fromlist=["iter_ledger"])
                 .iter_ledger(strict=True))

    def test_wrong_typed_lines_are_skipped_and_counted(self, obs_cache):
        """A line with the right keys and a wrong-typed value is skipped
        like any unparsable line: the export and the aggregate behind
        /metrics both succeed and count it.  A final line still waiting
        for its newline is not counted."""
        append_record(make_record())
        bad = make_record().to_dict()
        bad["phases"] = 5
        with open(ledger_path(), "a") as fh:
            fh.write(json.dumps(bad, sort_keys=True) + "\n")
        append_record(make_record(ts=2000.0))
        aggregate = LedgerAggregate()
        for _ in range(2):
            text = registry_from_ledger(read_ledger()).to_prometheus()
            parsed = parse_prometheus(text)
            assert parsed[("repro_ledger_records", ())] == 2
            assert parsed[("repro_ledger_skipped_lines", ())] == 1
            assert aggregate.snapshot().to_prometheus() == text
            with open(ledger_path(), "a") as fh:
                fh.write("{torn")
        assert read_ledger().skipped == 1

    def test_non_utf8_lines_are_skipped_and_counted(self, obs_cache,
                                                    tmp_path):
        """A line that is not UTF-8 is skipped and counted like any
        other bad line: it breaks neither ``repro obs export`` nor the
        aggregate behind /metrics."""
        from repro.__main__ import main

        append_record(make_record())
        with open(ledger_path(), "ab") as fh:
            fh.write(b"\xff\n")
        append_record(make_record(ts=2000.0))
        records = read_ledger()
        assert [r.ts for r in records] == [1000.0, 2000.0]
        assert records.skipped == 1
        text = registry_from_ledger(records).to_prometheus()
        assert parse_prometheus(text)[("repro_ledger_skipped_lines", ())] == 1
        assert LedgerAggregate().snapshot().to_prometheus() == text
        out_file = tmp_path / "metrics.prom"
        assert main(["obs", "export", "--out", str(out_file)]) == 0
        assert out_file.read_text() == text


def _die_on_key(doomed: str, item):
    """Execution layer that SIGKILLs the worker drawing ``doomed``."""
    if item[0] == doomed:
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_recipe(item)


def _report_run_many(recipes, send) -> None:
    """Forked child: run ``recipes`` on two workers and send back how the
    call ended."""
    try:
        run_many(recipes, jobs=2)
        send.send("returned")
    except BaseException as exc:  # noqa: BLE001 - reported to the test
        send.send(type(exc).__name__)
    finally:
        send.close()


def _append_batch(args):
    path, n, ts_base = args
    from repro.obs.ledger import append_record
    from tests.test_obs import make_record

    for i in range(n):
        append_record(make_record(ts=ts_base + i), path=path)
    return n


class TestLedgerAtomicity:
    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        n_procs, per_proc = 4, 50
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(n_procs) as pool:
            pool.map(
                _append_batch,
                [(str(path), per_proc, 1000.0 * p)
                 for p in range(n_procs)],
            )
        # Every line parses (strict): no interleaved partial writes.
        from repro.obs.ledger import iter_ledger

        records = list(iter_ledger(path, strict=True))
        assert len(records) == n_procs * per_proc


# ---------------------------------------------------------------------------
# Parent-only ledger and cache writes
# ---------------------------------------------------------------------------


def _noting(log: str, name: str, real, *args, **kwargs):
    """Note ``name`` and this process's pid in ``log``, then call
    ``real``.  One write on an O_APPEND descriptor, so the notes of
    forked workers land whole beside the parent's."""
    fd = os.open(log, os.O_APPEND | os.O_CREAT | os.O_WRONLY)
    try:
        os.write(fd, f"{name} {os.getpid()}\n".encode())
    finally:
        os.close(fd)
    return real(*args, **kwargs)


def _resolve_on_service_workers(recipes) -> None:
    """Submit ``recipes`` to a two-worker process-mode ``JobManager`` and
    wait for every job to finish."""
    from repro.service.jobs import JobManager

    manager = JobManager(workers=2, mode="process")
    try:
        ids = [manager.submit(recipe)["id"] for recipe in recipes]
        for job_id in ids:
            view = manager.wait(job_id, timeout=60)
            assert view["state"] == "done", view["error"]
    finally:
        manager.close()


def parent_only_problems(monkeypatch, tmp_path) -> list[str]:
    """Resolve three recipes, one of them twice, through ``run_many``
    and through ``JobManager(mode="process")``, each on two forked
    workers; one message for every ``ledger.append_record`` or
    ``parallel.store_result`` call made outside this process, and for
    every count other than one append per resolution and one store per
    fresh run."""
    from repro.obs import ledger
    from repro.sim import parallel

    monkeypatch.setenv("REPRO_MP_START", "fork")
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    cfg = tiny_config()
    unique = [RunRecipe(make_workload(k, length=200), "inclusive", cfg)
              for k in range(3)]
    recipes = unique + unique[:1]
    want = {"append_record": len(recipes), "store_result": len(unique)}
    problems = []
    for via, resolve in (
        ("run_many", functools.partial(run_many, jobs=2)),
        ("JobManager", _resolve_on_service_workers),
    ):
        log = tmp_path / f"{via}.calls"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / via))
        clear_memo()
        with monkeypatch.context() as m:
            for module, name in ((ledger, "append_record"),
                                 (parallel, "store_result")):
                m.setattr(module, name, functools.partial(
                    _noting, str(log), name, getattr(module, name)))
            resolve(recipes)
        calls = [line.split() for line in log.read_text().splitlines()]
        problems += [f"{via}: {name} ran in worker pid {pid}"
                     for name, pid in calls if int(pid) != os.getpid()]
        for name, n in want.items():
            made = sum(1 for called, _ in calls if called == name)
            if made != n:
                problems.append(f"{via}: {made} {name} calls, want {n}")
    clear_memo()
    return problems


def append_problems(monkeypatch, tmp_path) -> list[str]:
    """Append one record through ``ledger.append_record`` with
    ``os.open`` and ``os.write`` watched; one message for every way the
    append differs from a single ``os.write`` of the whole line on an
    ``O_APPEND`` descriptor."""
    from repro.obs import ledger

    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    record = make_record()
    flags: dict[int, int] = {}
    writes: list[tuple[int, bytes]] = []
    real_open, real_write = os.open, os.write

    def watched_open(path, flag, *args, **kwargs):
        fd = real_open(path, flag, *args, **kwargs)
        flags[fd] = flag
        return fd

    def watched_write(fd, data):
        writes.append((fd, bytes(data)))
        return real_write(fd, data)

    with monkeypatch.context() as m:
        m.setattr(os, "open", watched_open)
        m.setattr(os, "write", watched_write)
        ledger.append_record(record, tmp_path / "ledger.jsonl")
    problems = []
    if len(writes) != 1:
        problems.append(f"{len(writes)} os.write calls for one record")
    problems += ["os.write on a descriptor opened without O_APPEND"
                 for fd, _ in writes if not flags.get(fd, 0) & os.O_APPEND]
    line = (record.to_json_line() + "\n").encode()
    if len(writes) == 1 and writes[0][1] != line:
        problems.append("the write is not the whole record line")
    return problems


class TestParentOnlyWrites:
    """Pool workers compute; the parent appends each ledger record and
    stores each result, so every resolution is recorded exactly once
    and concurrent appends never tear a line."""

    def test_workers_never_append_or_store(self, monkeypatch, tmp_path):
        assert parent_only_problems(monkeypatch, tmp_path) == []

    def test_append_is_one_write_on_an_o_append_descriptor(
        self, monkeypatch, tmp_path
    ):
        assert append_problems(monkeypatch, tmp_path) == []


# ---------------------------------------------------------------------------
# Phase times
# ---------------------------------------------------------------------------

#: Every phase Simulation.run times.
PHASES = {"decode", "access_loop", "audit", "telemetry", "checkpoint",
          "flush"}


def _assert_fresh_phases(rec, result) -> None:
    """A fresh record carries its run's phases: the access loop took
    time, and the phases fit inside the record's wall time."""
    assert rec.phases == result.phases
    assert set(rec.phases) <= PHASES
    assert rec.phases["access_loop"] > 0
    assert sum(rec.phases.values()) <= rec.wall_s


class _CountingClock:
    """Stands in for the ``time`` module of ``repro.sim.engine``."""

    def __init__(self) -> None:
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        return time.perf_counter()


class TestProfiler:
    """Every run times its phases; no option turns the timing on."""

    @pytest.mark.parametrize("engine", ["object", "fast"])
    def test_profiled_run_reports_phases(self, engine, obs_cache):
        cfg = tiny_config().replace(engine=engine)
        result = run_workload(cfg, make_workload(), "inclusive")
        assert set(result.phases) == {"decode", "access_loop", "flush"}
        _assert_fresh_phases(read_ledger()[-1], result)

    @pytest.mark.parametrize("engine", ["object", "fast"])
    def test_boundary_work_has_phases_of_its_own(self, engine, obs_cache,
                                                 tmp_path):
        cfg = tiny_config().replace(engine=engine)
        beats = []
        result = run_workload(cfg, make_workload(), "inclusive",
                              audit="100", telemetry="150",
                              checkpoint_path=tmp_path / "run.ckpt",
                              checkpoint_every=200, progress=beats.append)
        assert beats and set(result.phases) == PHASES
        _assert_fresh_phases(read_ledger()[-1], result)

    def test_hits_record_no_phases_and_export_none(self, obs_cache):
        """One fresh run plus five hits: the hits' records carry no
        phases, so the export counts the fresh run's phases once."""
        recipe = RunRecipe(make_workload(), "inclusive", tiny_config())
        run_many([recipe])
        for i in range(5):
            if i % 2:
                clear_memo()  # resolve from the disk cache instead
            run_many([recipe])
        records = read_ledger()
        assert [r.source for r in records] == \
            ["run", "memo", "disk", "memo", "disk", "memo"]
        fresh = records[0]
        assert fresh.phases["access_loop"] > 0
        assert all(r.phases == {} for r in records[1:])
        parsed = parse_prometheus(registry_from_ledger(records).to_prometheus())
        exported = {
            dict(labels)["phase"]: value
            for (name, labels), value in parsed.items()
            if name == "repro_phase_seconds_total"
        }
        assert exported == fresh.phases

    @pytest.mark.parametrize("engine", ["object", "fast"])
    def test_clock_reads_scale_with_segments_not_accesses(
        self, engine, obs_cache, monkeypatch
    ):
        import repro.sim.engine as engine_mod

        def reads(length: int, **kw) -> int:
            clock = _CountingClock()
            monkeypatch.setattr(engine_mod, "time", clock)
            run_workload(tiny_config().replace(engine=engine),
                         make_workload(length=length), "inclusive", **kw)
            return clock.reads

        plain = reads(200)
        assert reads(2000) == plain
        # 2 cores x 2000 accesses in segments of 100: each segment adds
        # at most an access_loop lap and a telemetry lap.
        segments = 2 * 2000 // 100
        sampled = reads(2000, telemetry="100")
        assert segments < sampled <= plain + 2 * segments

    def test_attribution_is_engine_invariant(self, obs_cache):
        wl = make_workload()
        cfg = tiny_config()
        obj = run_workload(cfg, wl, "inclusive")
        fast = run_workload(cfg.replace(engine="fast"), wl, "inclusive")
        shares = counter_attribution(obj.stats, cfg)
        assert shares == counter_attribution(fast.stats, cfg)
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_counter_attribution_empty_stats(self):
        class Stats:
            cores = ()
            llc_hits = 0
            llc_misses = 0

        assert counter_attribution(Stats()) == {}


# ---------------------------------------------------------------------------
# Metrics registry and exporters
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_prometheus_round_trip_is_exact(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "runs")
        reg.gauge("repro_rate", "rate")
        reg.inc("repro_runs_total", {"engine": "fast"}, 3)
        reg.set("repro_rate", {"engine": "fast"}, 710763.4821937)
        reg.set("repro_rate", {"engine": "object"}, 128112.0)
        parsed = parse_prometheus(reg.to_prometheus())
        assert parsed[("repro_runs_total", (("engine", "fast"),))] == 3
        assert parsed[
            ("repro_rate", (("engine", "fast"),))
        ] == 710763.4821937
        assert parsed[("repro_rate", (("engine", "object"),))] == 128112.0

    def test_ledger_aggregation_round_trips_bit_identically(self):
        records = [
            make_record(engine="object", accesses_per_s=128112.25,
                        wall_s=1.5, phases={"access_loop": 1.25}),
            make_record(engine="fast", accesses_per_s=710763.125,
                        wall_s=0.25, source="run"),
            make_record(engine="fast", source="memo", cache_hit=True,
                        wall_s=0.0, accesses_per_s=0.0),
        ]
        # A version-1 hit line copied its run's phases; they count once.
        v1_hit = make_record(engine="object", source="disk", cache_hit=True,
                             wall_s=0.0, accesses_per_s=0.0,
                             version=1).to_dict()
        del v1_hit["phases"]
        v1_hit["profile_phases"] = {"access_loop": 1.25}
        records.append(LedgerRecord.from_dict(v1_hit))
        reg = registry_from_ledger(records)
        parsed = parse_prometheus(reg.to_prometheus())
        assert parsed[
            ("repro_runs_total",
             (("engine", "fast"), ("source", "memo")))
        ] == 1
        assert parsed[
            ("repro_best_accesses_per_s", (("engine", "fast"),))
        ] == 710763.125
        assert parsed[
            ("repro_phase_seconds_total",
             (("engine", "object"), ("phase", "access_loop")))
        ] == 1.25
        assert parsed[("repro_ledger_records", ())] == 4
        # And the JSON exporter agrees with the registry values.
        data = json.loads(reg.to_json())
        best = data["repro_best_accesses_per_s"]["samples"]
        fast = [s for s in best if s["labels"] == {"engine": "fast"}]
        assert fast[0]["value"] == 710763.125


    def test_ledger_aggregate_equals_a_full_fold(self, obs_cache,
                                                 monkeypatch):
        """The aggregate behind /metrics parses only the lines appended
        since its last snapshot, and every snapshot is byte-equal to a
        full fold of the ledger: after appends, a torn final line, its
        completion, truncation, replacement and deletion."""
        import repro.obs.registry as registry_mod

        parsed = []
        real = registry_mod.parse_ledger_lines

        def counting(text, strict=False):
            parsed.append(text.count("\n"))
            return real(text, strict)

        monkeypatch.setattr(registry_mod, "parse_ledger_lines", counting)
        records = [
            make_record(ts=1000.0 + i, engine=("fast", "object")[i % 2],
                        source=("run", "memo")[i % 3 == 2],
                        cache_hit=i % 3 == 2, wall_s=0.1 * (i + 1),
                        accesses_per_s=1e5 / (i + 1),
                        phases={"walk": 0.1 * i} if i % 2 else {})
            for i in range(9)
        ]
        path = ledger_path()
        aggregate = LedgerAggregate()

        def assert_equal() -> str:
            text = aggregate.snapshot().to_prometheus()
            assert text == registry_from_ledger(read_ledger()).to_prometheus()
            return text

        assert_equal()  # no ledger yet
        for rec in records[:3]:
            append_record(rec)
        assert_equal()
        assert parsed == [3]
        append_record(records[3])
        assert_equal()
        assert parsed == [3, 1]
        assert_equal()
        assert parsed == [3, 1]
        # A torn final line waits; the append after it completes one
        # line that does not parse.
        with open(path, "a") as fh:
            fh.write(records[4].to_json_line()[:40])
        assert_equal()
        assert parsed == [3, 1]
        append_record(records[5])
        assert "repro_ledger_records 4" in assert_equal()
        # Truncation to two records, then growth past the old end.
        lines = path.read_bytes().splitlines(keepends=True)
        with open(path, "r+b") as fh:
            fh.truncate(len(lines[0]) + len(lines[1]))
        assert "repro_ledger_records 2" in assert_equal()
        for rec in records[6:]:
            append_record(rec)
        append_record(records[0])
        assert_equal()
        # A replaced file as long as the old one, and a deleted one.
        size = path.stat().st_size
        replacement = path.with_name("next.jsonl")
        for rec in reversed(records):
            append_record(rec, path=replacement)
        assert replacement.stat().st_size >= size
        os.replace(replacement, path)
        assert "repro_ledger_records 9" in assert_equal()
        path.unlink()
        assert "repro_ledger_records 0" in assert_equal()


# ---------------------------------------------------------------------------
# Perf-regression gate
# ---------------------------------------------------------------------------


class TestRegress:
    def test_metric_direction(self):
        assert metric_direction("access_rate_per_s") == "higher"
        assert metric_direction("warm_speedup") == "higher"
        assert metric_direction("streaming_overhead") == "lower"
        assert metric_direction("cpus") is None

    def test_compare_value_directions(self):
        up = compare_value("m", 100.0, 150.0, "higher", 0.2)
        assert not up.regressed and up.change == pytest.approx(0.5)
        down = compare_value("m", 100.0, 75.0, "higher", 0.2)
        assert down.regressed
        worse_overhead = compare_value("m", 2.0, 2.6, "lower", 0.2)
        assert worse_overhead.regressed

    def test_injected_slowdown_regresses_ledger_leg(self):
        fast = make_record(accesses_per_s=100000.0, host_cpus=8)
        slow = make_record(accesses_per_s=75000.0, ts=2000.0, host_cpus=8)
        comps = compare_ledger([fast, slow], threshold=0.2, host_cpus=8)
        assert [c.regressed for c in comps] == [True]
        clean = compare_ledger(
            [fast, make_record(accesses_per_s=99000.0, ts=2000.0)],
            threshold=0.2, host_cpus=8,
        )
        assert [c.regressed for c in clean] == [False]

    def test_ledger_leg_filters_smoke_noise_and_foreign_hosts(self):
        comps = compare_ledger(
            [
                make_record(accesses_per_s=100000.0, accesses=500),
                make_record(accesses_per_s=1.0, ts=2000.0, host_cpus=99),
            ],
            host_cpus=8,
        )
        assert all(c.skipped for c in comps)

    def test_bench_cpus_mismatch_skips_with_reason(self):
        current = {"bench": "b", "cpus": 8, "rate_per_s": 50.0}
        history = [("old.json", {"bench": "b", "cpus": 1,
                                 "rate_per_s": 100.0})]
        comps = compare_bench(current, history)
        assert len(comps) == 1
        assert comps[0].skipped
        assert "cpus differ" in comps[0].reason

    def test_bench_same_host_regression_detected(self):
        current = {"bench": "b", "cpus": 8, "rate_per_s": 50.0}
        history = [("old.json", {"bench": "b", "cpus": 8,
                                 "rate_per_s": 100.0})]
        comps = compare_bench(current, history)
        assert [c.regressed for c in comps] == [True]

    def test_run_regress_collects_errors_for_bad_paths(self, tmp_path):
        report = run_regress(bench_paths=[tmp_path / "missing.json"])
        assert report.errors
        assert report.exit_code() == 2

    def test_check_mode_fails_vacuous_gate(self):
        report = run_regress()
        assert report.exit_code() == 0
        assert report.exit_code(check=True) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestObsCli:
    def run_cli(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_ls_show_top_diff_export(self, obs_cache, capsys, tmp_path):
        cfg = tiny_config()
        run_many([
            RunRecipe(make_workload(0), "inclusive", cfg),
            RunRecipe(make_workload(1), "inclusive", cfg,
                      policy="srrip"),
        ])
        keys = [r.recipe_key for r in read_ledger()]
        assert self.run_cli("obs", "ls") == 0
        out = capsys.readouterr().out
        assert "2 record(s) total" in out
        assert keys[0][:8] in out
        assert self.run_cli("obs", "show", keys[0][:8]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["recipe_key"] == keys[0]
        assert self.run_cli("obs", "top") == 0
        assert "best throughput by engine" in capsys.readouterr().out
        assert self.run_cli("obs", "diff", keys[0][:8], keys[1][:8]) == 0
        assert "recipe_key" in capsys.readouterr().out
        out_file = tmp_path / "metrics.prom"
        assert self.run_cli("obs", "export", "--out", str(out_file)) == 0
        capsys.readouterr()
        parsed = parse_prometheus(out_file.read_text())
        assert parsed[("repro_ledger_records", ())] == 2

    def test_show_rejects_short_or_unknown_prefix(self, obs_cache,
                                                  capsys):
        assert self.run_cli("obs", "show", "ab") == 1
        assert self.run_cli("obs", "show", "feedbeef") == 1
        capsys.readouterr()

    def test_regress_cli_detects_injected_slowdown(self, obs_cache,
                                                   capsys):
        path = obs_cache / "ledger.jsonl"
        append_record(make_record(accesses_per_s=100000.0, host_cpus=8),
                      path=path)
        append_record(
            make_record(accesses_per_s=70000.0, ts=2000.0, host_cpus=8),
            path=path,
        )
        code = self.run_cli(
            "obs", "regress", "--bench", "NO_SUCH_GLOB_*.json",
            "--ledger", str(path), "--cpus", "8",
        )
        out = capsys.readouterr().out
        assert code == 2  # the bogus bench pattern is a read error
        code = self.run_cli(
            "obs", "regress", "--ledger", str(path), "--cpus", "8",
            "--bench",
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out

    def test_regress_check_passes_against_committed_history(
        self, obs_cache, capsys, monkeypatch
    ):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert self.run_cli("obs", "regress", "--check") == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out


# ---------------------------------------------------------------------------
# Bench schema checker (scripts/check_bench.py)
# ---------------------------------------------------------------------------


class TestCheckBench:
    def load(self):
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_bench", root / "scripts" / "check_bench.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_committed_reports_conform(self, monkeypatch, capsys):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert self.load().main([]) == 0
        capsys.readouterr()

    def test_rejects_missing_and_mistyped_keys(self, tmp_path, capsys):
        mod = self.load()
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({
            "bench": "b", "cpus": "eight", "rate_per_s": 1.0,
        }))
        assert mod.main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert "cpus" in err and "methodology" in err

    def test_rejects_report_without_directional_metric(self, tmp_path,
                                                       capsys):
        mod = self.load()
        bad = tmp_path / "BENCH_flat.json"
        bad.write_text(json.dumps({
            "bench": "b", "cpus": 1, "methodology": "m", "note": "hi",
        }))
        assert mod.main([str(bad)]) == 1
        assert "directional" in capsys.readouterr().err
