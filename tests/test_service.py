"""Simulation service tests: recipe wire forms, field-attributed
rejections, job-manager dedup, and the HTTP surface end to end.

The HTTP tests run a real :class:`~repro.service.server.ServiceServer`
on an ephemeral port in ``mode="thread"`` (one CPU in CI; thread
workers keep semantics identical without fork cost) and talk to it
through :class:`~repro.service.client.ServiceClient` -- real sockets,
real JSON, nothing mocked but the clock-free workloads."""

from __future__ import annotations

import dataclasses
import functools
import http.client
import itertools
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.config_io import (
    ConfigError,
    RecipeError,
    config_to_dict,
    recipe_from_dict,
    recipe_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.params import (
    CacheGeometry,
    DirectoryGeometry,
    LLCGeometry,
    SystemConfig,
)
from repro.sim.parallel import RunRecipe, _execute_recipe
from repro.sim.telemetry import RunProgress
from repro.workloads import homogeneous_mix

_UNIQUE = itertools.count()


def tiny_config(engine: str = "object") -> SystemConfig:
    """A miniature CMP (mirrors conftest.tiny_config) so service jobs
    resolve in milliseconds."""
    return SystemConfig(
        cores=2,
        l1=CacheGeometry(sets=1, ways=2),
        l2=CacheGeometry(sets=2, ways=4),
        llc=LLCGeometry(banks=2, sets_per_bank=4, ways=4),
        directory=DirectoryGeometry(sets=2, ways=8),
        engine=engine,
    )


def make_recipe(scheme: str = "inclusive", policy: str = "lru",
                accesses: int = 120, unique: bool = True) -> RunRecipe:
    """A tiny, fast recipe; ``unique`` gives the workload a fresh name
    so the cross-test in-process memo can never satisfy it."""
    wl = homogeneous_mix("xalancbmk.2", cores=2, n_accesses=accesses)
    if unique:
        wl.name = f"svc-test-{next(_UNIQUE)}"
    return RunRecipe(workload=wl, scheme=scheme, policy=policy,
                     config=tiny_config())


# ---------------------------------------------------------------------------
# recipe wire forms


def test_recipe_dict_round_trip_preserves_key(tmp_path):
    from repro.sim.tracebin import make_trace_ref, save_workload_bin
    from repro.workloads import SynthRef

    recipe = make_recipe(scheme="ziv:likelydead", policy="srrip")
    save_workload_bin(recipe.workload, tmp_path / "wl.tracebin")
    for workload in (
        recipe.workload,
        make_trace_ref(tmp_path / "wl.tracebin"),
        SynthRef("profile", "gcc.1", cores=2, accesses=60, seed=5),
        SynthRef("mt", "vips", cores=2, accesses=60, seed=5),
    ):
        original = RunRecipe(workload=workload, scheme=recipe.scheme,
                             policy=recipe.policy, config=recipe.config)
        rebuilt = recipe_from_dict(recipe_to_dict(original))
        assert rebuilt.key() == original.key()
        assert rebuilt.workload.name == workload.name
        assert rebuilt.scheme == recipe.scheme
        assert rebuilt.policy == recipe.policy


def test_recipe_round_trip_keeps_kwargs_and_scheduling():
    recipe = RunRecipe(
        workload=homogeneous_mix("gcc.1", cores=2, n_accesses=60),
        scheme="qbs",
        policy="srrip",
        scheduling="lockstep",
        policy_kwargs=(("rrpv_bits", 2),),
        config=tiny_config(),
    )
    rebuilt = recipe_from_dict(recipe_to_dict(recipe))
    assert rebuilt.key() == recipe.key()
    assert rebuilt.policy_kwargs == (("rrpv_bits", 2),)
    assert rebuilt.scheduling == "lockstep"


def test_workload_profile_form_synthesizes_deterministically():
    data = {"kind": "profile", "app": "gcc.1", "cores": 2, "accesses": 80}
    built = workload_from_dict(data)
    direct = homogeneous_mix("gcc.1", cores=2, n_accesses=80)
    assert built.fingerprint() == direct.fingerprint()


def test_workload_records_form_round_trips_fingerprint():
    wl = homogeneous_mix("mcf.1", cores=2, n_accesses=50)
    rebuilt = workload_from_dict(workload_to_dict(wl))
    assert rebuilt.fingerprint() == wl.fingerprint()


def test_belady_policy_coerces_to_lockstep():
    d = recipe_to_dict(make_recipe())
    d["policy"] = "belady"
    assert recipe_from_dict(d).scheduling == "lockstep"


# ---------------------------------------------------------------------------
# result payloads


def _asdict_sanitize(value):
    """The reference projection: a dataclass is copied by
    ``dataclasses.asdict`` and the copy is sanitized."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _asdict_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_asdict_sanitize(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _asdict_sanitize(dataclasses.asdict(value))
    return repr(value)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_payload_bytes_equal_the_asdict_reference(engine, monkeypatch):
    """Sanitizing a dataclass field by field yields the bytes of the
    ``dataclasses.asdict`` copy, with every attachment present."""
    from repro.service import api
    from repro.sim.engine import run_workload

    recipe = make_recipe(scheme="ziv:notinprc")
    result = run_workload(tiny_config(engine), recipe.workload,
                          "ziv:notinprc", audit="end", telemetry="40")
    assert None not in (result.audit, result.telemetry)
    payload = api.result_to_json(result)
    monkeypatch.setattr(api, "_sanitize", _asdict_sanitize)
    assert payload == api.result_to_json(result)


# ---------------------------------------------------------------------------
# field-attributed rejections (satellite: structured errors, both paths)


def test_job_reply_splits_back_verbatim():
    """A ``POST /v1/jobs`` reply is the canonical JSON of the job view
    and the payload, and splits back into the view and the payload's
    bytes verbatim; without a payload it is ``{"job": view}``."""
    from repro.service.api import job_reply, split_job_reply

    view = {"id": "j1", "state": "done", "workload": "gcc-\u00e9"}
    payload = b'{"cycles":7,"workload":"gcc-\\u00e9"}'
    reply = job_reply(view, payload)
    assert json.loads(reply) == {"job": view, "result": json.loads(payload)}
    assert reply == (json.dumps({"job": view, "result": None},
                                sort_keys=True).encode()
                     .replace(b"null", payload))
    assert split_job_reply(reply) == (view, payload)
    assert job_reply(view) == json.dumps({"job": view},
                                         sort_keys=True).encode()
    assert split_job_reply(job_reply(view)) == (view, None)


def _rejection(data) -> RecipeError:
    with pytest.raises(RecipeError) as excinfo:
        recipe_from_dict(data)
    return excinfo.value


def test_unknown_engine_rejected_with_field():
    d = recipe_to_dict(make_recipe(unique=False))
    d["config"]["engine"] = "warp"
    err = _rejection(d)
    assert err.field == "config.engine"
    assert "warp" in str(err)


def test_bad_config_section_key_rejected_with_field():
    d = recipe_to_dict(make_recipe(unique=False))
    d["config"]["l2"]["bogus_ways"] = 4
    err = _rejection(d)
    assert err.field == "config.l2.bogus_ways"


def test_unknown_recipe_key_rejected_with_field():
    d = recipe_to_dict(make_recipe(unique=False))
    d["frobnicate"] = 1
    assert _rejection(d).field == "frobnicate"


def test_missing_required_key_rejected_with_field():
    d = recipe_to_dict(make_recipe(unique=False))
    del d["scheme"]
    assert _rejection(d).field == "scheme"


def test_unknown_scheme_and_policy_rejected_with_field():
    d = recipe_to_dict(make_recipe(unique=False))
    d["scheme"] = "nonesuch"
    assert _rejection(d).field == "scheme"
    d = recipe_to_dict(make_recipe(unique=False))
    d["policy"] = "nonesuch"
    assert _rejection(d).field == "policy"


def test_unknown_workload_kind_rejected_with_field():
    d = recipe_to_dict(make_recipe(unique=False))
    d["workload"] = {"kind": "quantum"}
    assert _rejection(d).field == "workload.kind"


#: Recipes that parse but that the fast engine cannot run.
_FAST_UNSUPPORTED = [("qbs", "lru"), ("charonbase", "lru"),
                     ("inclusive", "hawkeye")]


def _fast_dict(scheme: str, policy: str) -> dict:
    d = recipe_to_dict(make_recipe(scheme=scheme, policy=policy,
                                   unique=False))
    d["config"]["engine"] = "fast"
    return d


@pytest.mark.parametrize("scheme, policy", _FAST_UNSUPPORTED)
def test_fast_engine_unsupported_recipe_rejected_with_field(scheme, policy):
    err = _rejection(_fast_dict(scheme, policy))
    assert err.field == "config.engine"
    assert repr(scheme) in str(err) and repr(policy) in str(err)


def test_fast_recipe_validation_leaves_the_engine_unloaded():
    # The server checks every fast recipe against the engine's envelope;
    # accepting or rejecting one must not import the engine module.
    code = (
        "import json, sys\n"
        "from repro.config_io import RecipeError, recipe_from_dict\n"
        "ok, bad = json.loads(sys.argv[1])\n"
        "assert recipe_from_dict(ok).config.engine == 'fast'\n"
        "try:\n"
        "    recipe_from_dict(bad)\n"
        "except RecipeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('unsupported fast recipe accepted')\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro.sim.fast'))))\n"
    )
    config = config_to_dict(tiny_config("fast"))
    ok = {"workload": {"kind": "profile", "app": "xalancbmk.2", "cores": 2,
                       "accesses": 120},
          "scheme": "ziv:notinprc", "config": config}
    bad = dict(ok, scheme="qbs")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([ok, bad])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_engine_imports_no_service_module():
    """The engine, the runner, traces, the ledger and the workloads load
    no service or HTTP module: every process that simulates, such as
    a pool worker or a streamed run, would otherwise carry them."""
    code = (
        "import json, sys\n"
        "import repro.sim.engine, repro.sim.parallel, repro.sim.tracebin\n"
        "import repro.obs.ledger, repro.workloads\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "repro.sim.engine" in loaded
    assert [m for m in loaded
            if m.split(".")[0] in ("http", "email", "socketserver")
            or m.split(".")[:2] == ["repro", "service"]] == []


def test_recipe_error_is_a_config_error():
    # Existing load_config callers that catch ConfigError keep working.
    assert issubclass(RecipeError, ConfigError)


# ---------------------------------------------------------------------------
# job manager: dedup + coalescing (no HTTP)


def test_manager_coalesces_inflight_submissions(monkeypatch):
    """Three submissions of one recipe while its execution is gated:
    exactly one execution, one 'run' + two 'memo' ledger records."""
    from repro.obs.ledger import read_ledger
    from repro.service.jobs import JobManager
    from repro.sim import parallel

    gate = threading.Event()
    executions = []
    real = parallel._execute_recipe

    def gated(item):
        executions.append(item[0])
        assert gate.wait(timeout=30)
        return real(item)

    monkeypatch.setattr(parallel, "_execute_recipe", gated)
    recipe = make_recipe()
    manager = JobManager(workers=2, mode="thread")
    try:
        views = [manager.submit(recipe) for _ in range(3)]
        assert views[0]["state"] == "running"
        assert views[1]["coalesced_into"] == views[0]["id"]
        assert views[2]["coalesced_into"] == views[0]["id"]
        gate.set()
        finals = [manager.wait(v["id"], timeout=30) for v in views]
        assert [v["state"] for v in finals] == ["done"] * 3
        assert sorted(v["source"] for v in finals) == ["memo", "memo", "run"]
        assert executions == [recipe.key()]
        ledger = [r.source for r in read_ledger()
                  if r.recipe_key == recipe.key()]
        assert sorted(ledger) == ["memo", "memo", "run"]
        results = [manager.result(v["id"]) for v in views]
        assert all(r is results[0] for r in results)
    finally:
        gate.set()
        manager.close()


def test_manager_resolves_memo_hits_without_execution(monkeypatch):
    from repro.service.jobs import JobManager
    from repro.sim import parallel

    recipe = make_recipe()
    manager = JobManager(workers=1, mode="thread")
    try:
        first = manager.wait(manager.submit(recipe)["id"], timeout=30)
        assert first["source"] == "run"

        def boom(item):  # pragma: no cover - must never run
            raise AssertionError("cache hit must not execute")

        monkeypatch.setattr(parallel, "_execute_recipe", boom)
        second = manager.submit(recipe)
        assert second["state"] == "done"
        assert second["source"] in ("memo", "disk")
    finally:
        manager.close()


def test_manager_memos_stay_bounded(tmp_path, monkeypatch):
    """With the bounds patched low, the result, oracle and payload memos
    keep their newest entries, and an evicted key comes back from the
    disk cache as a ``disk`` hit with the payload bytes it had."""
    from repro.service import jobs
    from repro.service.api import result_to_json
    from repro.sim import parallel

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(parallel, "MEMO_ENTRIES", 3)
    monkeypatch.setattr(parallel, "ORACLE_MEMO_ENTRIES", 2)
    parallel.clear_memo()
    recipes = [dataclasses.replace(make_recipe(policy="belady"),
                                   scheduling="lockstep") for _ in range(5)]
    keys = [r.key() for r in recipes]
    manager = jobs.JobManager(workers=1, mode="thread")
    try:
        payloads = []
        for recipe in recipes:
            view = manager.wait(manager.submit(recipe)["id"], timeout=30)
            assert (view["state"], view["source"]) == ("done", "run")
            payloads.append(manager.payload(view["key"], result_to_json))
        assert list(parallel._MEMO) == keys[2:]
        assert list(parallel._ORACLE_MEMO) == \
            [r.workload.fingerprint() for r in recipes[3:]]
        assert list(manager._payloads) == keys[2:]
        again = manager.submit(recipes[0])
        assert (again["state"], again["source"]) == ("done", "disk")
        assert manager.payload(keys[0], result_to_json) == payloads[0]
        assert list(parallel._MEMO) == keys[3:] + keys[:1]
        assert list(manager._payloads) == keys[3:] + keys[:1]
    finally:
        manager.close()
        parallel.clear_memo()


def test_manager_records_failures(monkeypatch):
    from repro.service.jobs import JobManager
    from repro.sim import parallel

    def boom(item):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(parallel, "_execute_recipe", boom)
    manager = JobManager(workers=1, mode="thread")
    try:
        view = manager.wait(manager.submit(make_recipe())["id"], timeout=30)
        assert view["state"] == "failed"
        assert "engine exploded" in view["error"]
        assert manager.result(view["id"]) is None
    finally:
        manager.close()


def test_manager_dispatch_failure_does_not_strand_the_key(monkeypatch):
    """Regression (found by `repro lint` bring-up): an executor.submit
    that raised used to leave the recipe key in ``_inflight``, so every
    later submission of that recipe coalesced onto a primary that could
    never finish."""
    from repro.service.jobs import JobManager

    class BrokenPool:
        def submit(self, fn, item):
            raise RuntimeError("pool is broken")

    recipe = make_recipe()
    manager = JobManager(workers=1, mode="thread")
    try:
        monkeypatch.setattr(
            manager, "_ensure_executor", lambda: BrokenPool()
        )
        view = manager.submit(recipe)
        assert view["state"] == "failed"
        assert "pool is broken" in view["error"]
        monkeypatch.undo()
        # The same recipe must dispatch fresh, not coalesce onto the
        # dead primary.
        second = manager.wait(manager.submit(recipe)["id"], timeout=30)
        assert second["state"] == "done"
        assert second["source"] == "run"
        assert not second.get("coalesced_into")
    finally:
        manager.close()


def test_manager_replaces_a_broken_process_pool(monkeypatch):
    """A worker killed mid-job (an OOM kill) breaks a process pool for
    good.  The job fails with that error, and the next fresh submission
    runs on a new pool instead of failing until restart."""
    from repro.service.jobs import JobManager
    from repro.sim import parallel

    victim = make_recipe()
    # Forked workers inherit the patched execution layer; the manager
    # pickles it by name, so it must live at module level.
    monkeypatch.setenv("REPRO_MP_START", "fork")
    monkeypatch.setattr(parallel, "_execute_recipe",
                        functools.partial(_die_on_key, victim.key()))
    manager = JobManager(workers=1, mode="process")
    try:
        failed = manager.wait(manager.submit(victim)["id"], timeout=60)
        assert failed["state"] == "failed"
        assert "BrokenProcessPool" in failed["error"]
        after = manager.wait(manager.submit(make_recipe())["id"], timeout=60)
        assert after["state"] == "done", after["error"]
        assert after["source"] == "run"
    finally:
        manager.close()


def test_manager_fails_cleanly_when_the_store_fails(monkeypatch):
    """A full disk: the result cannot be stored, so the primary and its
    coalesced waiter both fail with the write error, the key is freed
    and /metrics counts both failures.  Nothing serves the unstored
    result: once the disk has room, a resubmission runs fresh, and the
    ledger holds no record for the key ahead of that run."""
    import errno

    from repro.obs.ledger import read_ledger
    from repro.obs.registry import MetricsRegistry, parse_prometheus
    from repro.service.jobs import JobManager
    from repro.sim import parallel

    gate = threading.Event()

    def gated(item):
        assert gate.wait(timeout=30)
        return _execute_recipe(item)

    def full_disk(key, result):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(parallel, "_execute_recipe", gated)
    monkeypatch.setattr(parallel, "store_result", full_disk)
    recipe = make_recipe()
    manager = JobManager(workers=1, mode="thread")
    try:
        primary = manager.submit(recipe)
        waiter = manager.submit(recipe)
        assert waiter["coalesced_into"] == primary["id"]
        gate.set()
        finals = [manager.wait(v["id"], timeout=10)
                  for v in (primary, waiter)]
        assert [v["state"] for v in finals] == ["failed", "failed"]
        assert all("OSError" in v["error"] and "No space left" in v["error"]
                   for v in finals)
        with manager._lock:
            assert manager._inflight == {}
        registry = MetricsRegistry()
        manager.fill_registry(registry)
        metrics = parse_prometheus(registry.to_prometheus())
        assert metrics[("repro_service_jobs_total",
                        (("outcome", "failed"),))] == 2
        assert parallel.lookup_result(recipe.key()) is None
        monkeypatch.undo()
        again = manager.wait(manager.submit(recipe)["id"], timeout=30)
        assert (again["state"], again["source"]) == ("done", "run")
        assert [r.source for r in read_ledger()
                if r.recipe_key == recipe.key()] == ["run"]
    finally:
        gate.set()
        manager.close()


def _die_on_key(doomed: str, item):
    """Execution layer that SIGKILLs the worker drawing ``doomed``."""
    if item[0] == doomed:
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_recipe(item)


def test_server_concurrent_close_is_race_free():
    """Regression (found by `repro lint` bring-up): two concurrent
    ``close()`` calls both passed the unguarded check-then-act on
    ``_closed`` and ran ``server_close()`` twice on one socket."""
    from repro.service import create_server

    server = create_server(port=0, workers=1, mode="thread").start()
    errors: "list[BaseException]" = []
    barrier = threading.Barrier(4)

    def closer():
        barrier.wait(timeout=10)
        try:
            server.close()
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # And a closed server stays closed: start() after close() is an
    # error, not a silent relisten on a dead socket.
    with pytest.raises(RuntimeError, match="closed"):
        server.start()


# ---------------------------------------------------------------------------
# HTTP surface


@pytest.fixture
def service():
    from repro.service import ServiceClient, create_server

    server = create_server(port=0, workers=2, mode="thread").start()
    try:
        with ServiceClient(server.url, timeout=30) as client:
            yield server, client
    finally:
        server.close()


def test_http_submit_wait_result(service):
    server, client = service
    recipe = make_recipe()
    view = client.submit(recipe)
    assert view["state"] in ("running", "done")
    final = client.wait(view["id"], timeout=30)
    assert final["state"] == "done"
    assert final["source"] == "run"
    payload = client.result(final["id"])
    assert payload["scheme"] == "inclusive"
    assert payload["workload"] == recipe.workload.name
    assert payload["summary"]["accesses"] == recipe.workload.total_accesses()
    assert payload["cycles"] > 0
    assert len(payload["ipc_per_core"]) == 2


def test_http_duplicate_submission_is_byte_identical(service):
    server, client = service
    d = recipe_to_dict(make_recipe())
    first = client.wait(client.submit(d)["id"], timeout=30)
    second = client.submit(d)
    assert second["state"] == "done"
    assert second["source"] in ("memo", "disk")
    assert client.result_bytes(first["id"]) == \
        client.result_bytes(second["id"])


def test_http_rejects_bad_engine_with_field(service):
    from repro.service import ServiceError

    server, client = service
    d = recipe_to_dict(make_recipe(unique=False))
    d["config"]["engine"] = "warp"
    with pytest.raises(ServiceError) as excinfo:
        client.submit(d)
    err = excinfo.value
    assert err.status == 400
    assert err.type == "RecipeError"
    assert err.field == "config.engine"


def test_http_rejects_bad_section_key_with_field(service):
    from repro.service import ServiceError

    server, client = service
    d = recipe_to_dict(make_recipe(unique=False))
    d["config"]["llc"]["warp_factor"] = 9
    with pytest.raises(ServiceError) as excinfo:
        client.submit(d)
    assert excinfo.value.status == 400
    assert excinfo.value.field == "config.llc.warp_factor"
    # No config has a profile section: every run times its phases.
    d = recipe_to_dict(make_recipe(unique=False))
    d["config"]["profile"] = {"enabled": False}
    with pytest.raises(ServiceError) as excinfo:
        client.submit(d)
    assert excinfo.value.status == 400
    assert excinfo.value.field == "config.profile"


def test_http_rejects_unsupported_fast_recipes(service):
    from repro.obs.registry import parse_prometheus
    from repro.service import ServiceError

    server, client = service
    for scheme, policy in _FAST_UNSUPPORTED:
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_fast_dict(scheme, policy))
        assert excinfo.value.status == 400
        assert excinfo.value.field == "config.engine"
    metrics = parse_prometheus(client.metrics())
    outcomes = {
        labels[0][1]: value for (name, labels), value in metrics.items()
        if name == "repro_service_jobs_total"
    }
    assert outcomes.get("rejected") == len(_FAST_UNSUPPORTED)
    assert outcomes.get("failed", 0) == 0


def _outcome(client, name: str) -> int:
    """One ``repro_service_jobs_total`` count from ``/metrics``."""
    from repro.obs.registry import parse_prometheus

    return parse_prometheus(client.metrics()).get(
        ("repro_service_jobs_total", (("outcome", name),)), 0
    )


def _post_raw(server, body: bytes) -> "tuple[int, bytes]":
    """POST raw bytes to /v1/jobs; returns (status, reply bytes)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _post(server, body: bytes) -> "tuple[int, dict]":
    """POST raw bytes to /v1/jobs; returns (status, decoded body)."""
    status, raw = _post_raw(server, body)
    return status, json.loads(raw)


def test_http_rejects_malformed_json_body(service):
    """A body that is no recipe is a 400, and /metrics counts it as
    rejected, each time it comes."""
    server, client = service
    count = 0
    for body, error in ((b"{not json", "BadRequest"),
                        (b"\x80 is not UTF-8", "BadRequest"),
                        (b"[]", "RecipeError"),
                        (b"", "BadRequest")):
        for _ in range(2):
            status, reply = _post(server, body)
            assert (status, reply["error"]["type"]) == (400, error), body
            count += 1
            assert _outcome(client, "rejected") == count, body


def test_http_unknown_job_is_404(service):
    from repro.service import ServiceError

    server, client = service
    with pytest.raises(ServiceError) as excinfo:
        client.job("j999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.result("j999999")
    assert excinfo.value.status == 404


def test_http_unknown_endpoint_is_404(service):
    from repro.service import ServiceError

    server, client = service
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/v1/warp")
    assert excinfo.value.status == 404


def test_http_events_and_health(service):
    server, client = service
    assert client.health()["ok"] is True
    view = client.submit(make_recipe())
    client.wait(view["id"], timeout=30)
    events, cursor = client.events(0)
    kinds = [e["kind"] for e in events if e["job"]["id"] == view["id"]]
    assert kinds[-1] == "done"
    done = [e for e in events if e["kind"] == "done"][-1]
    assert done["progress"]["completed"] >= 1
    assert dataclasses.asdict(RunProgress(**done["progress"])) == \
        done["progress"]
    assert cursor >= len(events)
    later, _ = client.events(cursor)
    assert later == []


@pytest.mark.parametrize("path", ["/v1/events", "/v1/events/stream"])
def test_http_rejects_a_bad_event_cursor_with_field(service, path):
    """Both event endpoints read ``since`` the same way: a cursor that
    is no integer is a 400 naming the field, not a 500."""
    server, _client = service
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", f"{path}?since=abc")
        resp = conn.getresponse()
        reply = json.loads(resp.read())
    finally:
        conn.close()
    assert resp.status == 400
    assert reply["error"]["type"] == "BadRequest"
    assert reply["error"]["field"] == "since"


def test_http_metrics_expose_service_counters(service):
    from repro.obs.ledger import read_ledger
    from repro.obs.registry import (
        MetricsRegistry,
        parse_prometheus,
        registry_from_ledger,
    )
    from repro.service import ServiceError

    server, client = service
    d = recipe_to_dict(make_recipe())
    client.wait(client.submit(d)["id"], timeout=30)
    client.submit(d)  # memo hit
    bad = recipe_to_dict(make_recipe(unique=False))
    bad["config"]["engine"] = "warp"
    with pytest.raises(ServiceError):
        client.submit(bad)
    metrics = parse_prometheus(client.metrics())
    total = ("repro_service_jobs_total",)

    def outcome(name):
        return metrics.get(
            ("repro_service_jobs_total", (("outcome", name),)), 0
        )

    assert outcome("fresh") >= 1
    assert outcome("memo") >= 1
    assert outcome("rejected") >= 1
    assert metrics[("repro_service_workers", ())] == 2
    # The ledger aggregation shares the exposition, and equals a full
    # fold of the ledger before and after it grows.
    assert ("repro_ledger_records", ()) in metrics
    for _ in range(2):
        reference = MetricsRegistry()
        server.manager.fill_registry(reference)
        registry_from_ledger(read_ledger(), registry=reference)
        assert client.metrics() == reference.to_prometheus()
        client.submit(d)


def test_http_metrics_skip_and_count_a_wrong_typed_ledger_line(
    tmp_path, monkeypatch
):
    """A ledger line with the right keys and a wrong-typed value used to
    make every /metrics scrape answer 500; now it is left out and
    counted."""
    import json

    from repro.obs.ledger import (
        LEDGER_VERSION,
        LedgerRecord,
        append_record,
        ledger_path,
    )
    from repro.obs.registry import parse_prometheus
    from repro.service import ServiceClient, create_server

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    record = LedgerRecord(
        version=LEDGER_VERSION, ts=1.0, recipe_key="", workload="wl",
        workload_fingerprint="", scheme="inclusive", policy="lru",
        scheduling="timing", engine="fast", config_digest="",
        source="direct", cache_hit=False, trace_path="", resumed_from="",
        wall_s=0.5, accesses=10, accesses_per_s=20.0, cycles=99,
        audit_violations=0, telemetry_samples=0, telemetry_events=0,
        phases={}, host_cpus=2,
    )
    append_record(record)
    with open(ledger_path(), "a") as fh:
        fh.write(json.dumps({**record.to_dict(), "phases": 5},
                            sort_keys=True) + "\n")
    server = create_server(port=0, workers=2, mode="thread").start()
    try:
        with ServiceClient(server.url, timeout=30) as client:
            metrics = parse_prometheus(client.metrics())
    finally:
        server.close()
    assert metrics[("repro_ledger_records", ())] == 1
    assert metrics[("repro_ledger_skipped_lines", ())] == 1


def test_http_failed_ledger_appends_are_counted(service, monkeypatch):
    """A full disk under the ledger fails no job: a fresh run and a hit
    both complete and serve their payload, /metrics counts the two
    missing records, and once the disk has room the next resolution
    appends as usual."""
    import errno

    from repro.obs import ledger
    from repro.obs.registry import parse_prometheus

    class FullDisk:
        """``os`` as the ledger module sees it, on a full disk."""

        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def write(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    def failures() -> int:
        return parse_prometheus(client.metrics())[
            ("repro_service_ledger_append_failures_total", ())]

    def records(key: str) -> "list[str]":
        return [r.source for r in ledger.read_ledger()
                if r.recipe_key == key]

    server, client = service
    d = recipe_to_dict(make_recipe())
    monkeypatch.setattr(ledger, "os", FullDisk())
    fresh = client.wait(client.submit(d)["id"], timeout=30)
    hit = client.submit(d)
    assert (fresh["state"], fresh["source"]) == ("done", "run")
    assert hit["state"] == "done" and hit["source"] in ("memo", "disk")
    assert client.result_bytes(fresh["id"]) == client.result_bytes(hit["id"])
    assert failures() == 2
    assert records(fresh["key"]) == []
    monkeypatch.undo()
    again = client.submit(d)
    assert records(fresh["key"]) == [again["source"]]
    assert failures() == 2


def test_http_concurrent_clients_share_one_execution(service):
    """Satellite: N clients race one recipe -> one fresh execution,
    proven by the ledger, with bit-identical result payloads."""
    from repro.obs.ledger import read_ledger
    from repro.service import ServiceClient

    server, _ = service
    recipe = make_recipe(accesses=400)
    d = recipe_to_dict(recipe)
    results = [None] * 3

    def submit_and_fetch(i):
        c = ServiceClient(server.url, timeout=60)
        final = c.wait(c.submit(d)["id"], timeout=60)
        results[i] = (final["source"], c.result_bytes(final["id"]))

    threads = [threading.Thread(target=submit_and_fetch, args=(i,))
               for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(r is not None for r in results)
    sources = sorted(s for s, _ in results)
    assert sources.count("run") == 1
    assert all(s in ("run", "memo", "disk") for s in sources)
    assert len({payload for _, payload in results}) == 1
    ledger = [r.source for r in read_ledger()
              if r.recipe_key == recipe.key()]
    assert sorted(ledger).count("run") == 1
    assert len(ledger) == 3


def test_http_repeated_profile_submissions_synthesize_once(service,
                                                           monkeypatch):
    """A profile spec is synthesized once for its fingerprint and once
    where it executes; resubmissions of it synthesize nothing."""
    import repro.workloads.mixes as mixes
    from repro.service import ServiceError

    server, client = service
    calls = []
    real = mixes.build_trace

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(mixes, "build_trace", counting)
    cores = 3
    # A spec no other test submits, so no cache in this process has it.
    body = {
        "workload": {"kind": "profile", "app": "lbm.2", "cores": cores,
                     "accesses": 90, "seed": 7207},
        "scheme": "inclusive",
        "config": config_to_dict(tiny_config().replace(cores=cores)),
    }
    first = client.wait(client.submit(body)["id"], timeout=30)
    assert first["source"] == "run"
    assert calls == ["lbm.2"] * (2 * cores)
    for _ in range(4):
        again = client.submit(body)
        assert again["state"] == "done"
        assert again["source"] in ("memo", "disk")
        assert again["key"] == first["key"]
    assert len(calls) == 2 * cores
    body["workload"]["app"] = "nonesuch"
    with pytest.raises(ServiceError) as excinfo:
        client.submit(body)
    assert excinfo.value.status == 400
    assert excinfo.value.field == "workload.app"


def test_http_rejects_negative_accesses_with_field(service):
    from repro.service import ServiceError

    server, client = service
    body = {
        "workload": {"kind": "profile", "app": "mcf.1", "cores": 2,
                     "accesses": -5, "seed": 1},
        "scheme": "inclusive",
        "config": config_to_dict(tiny_config()),
    }
    with pytest.raises(ServiceError) as excinfo:
        client.submit(body)
    assert excinfo.value.status == 400
    assert excinfo.value.type == "RecipeError"
    assert excinfo.value.field == "workload.accesses"


def test_http_rejects_an_out_of_range_record_with_field(service):
    # A records workload is keyed by its packed records, so a field
    # outside its range is a 400 naming the core and record, not a 500.
    from repro.service import ServiceError

    server, client = service
    body = {
        "workload": {"kind": "records", "cores": [
            {"name": "ok", "records": [[0, 5, 1, 2]]},
            {"name": "bad", "records": [[1, 5, 0, 2], [2**32, 3, 0, 0]]},
        ]},
        "scheme": "inclusive",
        "config": config_to_dict(tiny_config()),
    }
    with pytest.raises(ServiceError) as excinfo:
        client.submit(body)
    assert (excinfo.value.status, excinfo.value.type,
            excinfo.value.field) == (400, "RecipeError",
                                     "workload.cores.1.records")
    assert "core 1: record 1 of trace 'bad'" in str(excinfo.value)


def test_http_both_engines_resolve(service):
    server, client = service
    base = make_recipe()
    payloads = {}
    for engine in ("object", "fast"):
        d = recipe_to_dict(base)
        d["config"]["engine"] = engine
        final = client.wait(client.submit(d)["id"], timeout=60)
        assert final["state"] == "done", final["error"]
        assert final["engine"] == engine
        payload = client.result(final["id"])
        payloads[engine] = (payload["cycles"], payload["summary"])
    # The two engines agree on the counters (the differential-oracle
    # contract).
    assert payloads["object"] == payloads["fast"]


# ---------------------------------------------------------------------------
# HTTP hits: what is computed once per body, once per key


def test_http_identical_bodies_parse_once(service, monkeypatch):
    """An accepted body is parsed and keyed once; a rejected one is
    validated, and counted, every time it comes."""
    from repro.service import ServiceError
    from repro.service import server as server_mod

    server, client = service
    parsed = []
    real = server_mod.recipe_from_dict
    monkeypatch.setattr(server_mod, "recipe_from_dict",
                        lambda data: parsed.append(data) or real(data))
    d = recipe_to_dict(make_recipe())
    first = client.wait(client.submit(d)["id"], timeout=30)
    for _ in range(3):
        again = client.submit(d)
        assert (again["key"], again["source"]) == (first["key"], "memo")
    assert len(parsed) == 1
    bad = recipe_to_dict(make_recipe(unique=False))
    bad["config"]["engine"] = "warp"
    for count in (1, 2, 3):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(bad)
        assert excinfo.value.field == "config.engine"
        assert _outcome(client, "rejected") == count
    assert len(parsed) == 4


def test_http_body_memo_is_bounded(service, monkeypatch):
    """A body over the size bound is parsed every time and never kept,
    and the memo never holds more bodies than its entry bound."""
    from repro.service import server as server_mod

    server, client = service
    memo = server._httpd.parse_body
    parsed = []
    real = server_mod.recipe_from_dict
    monkeypatch.setattr(server_mod, "recipe_from_dict",
                        lambda data: parsed.append(data) or real(data))
    body = json.dumps(recipe_to_dict(make_recipe())).encode()
    big = body + b" " * (server_mod.BODY_MEMO_MAX_BYTES - len(body) + 1)
    keys = set()
    for _ in range(2):
        status, reply = _post(server, big)
        assert status == 202
        keys.add(reply["job"]["key"])
    assert len(parsed) == 2 and len(keys) == 1
    assert memo.cache_info().currsize == 0
    at_bound = big[:-1]
    for _ in range(2):
        assert _post(server, at_bound)[0] == 202
    assert len(parsed) == 3
    assert memo.cache_info().currsize == 1
    for pad in range(server_mod.BODY_MEMO_ENTRIES + 8):
        assert memo(body + b" " * pad).key() in keys
        assert memo.cache_info().currsize <= server_mod.BODY_MEMO_ENTRIES
    assert memo.cache_info().currsize == server_mod.BODY_MEMO_ENTRIES


def test_http_payloads_are_serialized_once_per_key(tmp_path, monkeypatch):
    """Coalesced, memo and disk hits (after a restart on the same cache
    directory) all serve ``result_to_json`` of the stored result, and
    each server serializes it once."""
    from repro.service import ServiceClient, create_server
    from repro.service import server as server_mod
    from repro.service.api import result_to_json
    from repro.sim import parallel

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    serialized = []
    monkeypatch.setattr(server_mod, "result_to_json",
                        lambda r: serialized.append(r) or result_to_json(r))
    gate = threading.Event()

    def gated(item):
        assert gate.wait(timeout=30)
        return _execute_recipe(item)

    monkeypatch.setattr(parallel, "_execute_recipe", gated)
    recipe = make_recipe()
    d = recipe_to_dict(recipe)
    try:
        with create_server(port=0, workers=1, mode="thread") as server, \
                ServiceClient(server.url, timeout=30) as client:
            primary = client.submit(d)
            waiter = client.submit(d)
            assert waiter["coalesced_into"] == primary["id"]
            gate.set()
            ids = [client.wait(v["id"], timeout=30)["id"]
                   for v in (primary, waiter)]
            memo = client.submit(d)
            assert memo["source"] == "memo"
            ids.append(memo["id"])
            stored = result_to_json(parallel.lookup_result(recipe.key())[0])
            assert {client.result_bytes(i) for i in ids * 2} == {stored}
            assert len(serialized) == 1
        parallel.clear_memo()
        with create_server(port=0, workers=1, mode="thread") as server, \
                ServiceClient(server.url, timeout=30) as client:
            disk = client.submit(d)
            assert disk["source"] == "disk"
            for _ in range(2):
                assert client.result_bytes(disk["id"]) == stored
            assert len(serialized) == 2
    finally:
        gate.set()
        parallel.clear_memo()


def test_http_result_no_longer_stored_is_410(service, monkeypatch):
    """With the disk cache off, a result the memo dropped is gone: a
    410, even though its payload was served before."""
    from repro.service import ServiceError
    from repro.sim import parallel

    server, client = service
    monkeypatch.setenv("REPRO_CACHE", "off")
    view = client.wait(client.submit(make_recipe())["id"], timeout=30)
    assert client.result_bytes(view["id"])
    parallel.clear_memo()
    with pytest.raises(ServiceError) as excinfo:
        client.result_bytes(view["id"])
    assert (excinfo.value.status, excinfo.value.type) == (410, "ResultGone")


# ---------------------------------------------------------------------------
# HTTP hits: one round trip


def _count_requests(monkeypatch) -> list:
    """Record the method and path of each request any server handles
    from now on."""
    from repro.service import server as server_mod

    handled: list = []
    real = server_mod._Handler._dispatch

    def counting(handler, method):
        handled.append((method, handler.path))
        real(handler, method)

    monkeypatch.setattr(server_mod._Handler, "_dispatch", counting)
    return handled


def _gate_execution(monkeypatch) -> threading.Event:
    """Hold every execution until the returned event is set."""
    from repro.sim import parallel

    gate = threading.Event()

    def gated(item):
        assert gate.wait(timeout=30)
        return _execute_recipe(item)

    monkeypatch.setattr(parallel, "_execute_recipe", gated)
    return gate


def test_client_hit_is_one_request(service, monkeypatch):
    """A fresh job's submit and result take two requests; a hit's take
    one, and its ledger record derives no config digest."""
    from repro.obs import ledger

    server, client = service
    handled = _count_requests(monkeypatch)
    gate = _gate_execution(monkeypatch)
    d = recipe_to_dict(make_recipe())
    try:
        fresh = client.submit(d)
        assert fresh["state"] == "running"
        gate.set()
        payload = client.result_bytes(fresh["id"], timeout=30)
    finally:
        gate.set()
    assert handled == [("POST", "/v1/jobs"),
                       ("GET", f"/v1/jobs/{fresh['id']}/result?wait=30")]
    digests = []
    monkeypatch.setattr(ledger, "config_digest",
                        lambda config: digests.append(config))
    for _ in range(3):
        del handled[:]
        hit = client.submit(d)
        assert (hit["state"], hit["source"]) == ("done", "memo")
        assert client.result_bytes(hit["id"], timeout=30) == payload
        assert handled == [("POST", "/v1/jobs")]
    assert digests == []


def test_http_hit_reply_carries_the_stored_payload(tmp_path, monkeypatch):
    """A memo hit's reply, and a disk hit's after a restart on the same
    cache directory, is ``{"job": view, "result": payload}`` with the
    payload spliced in: the bytes ``GET .../result`` serves and a local
    run serializes to."""
    from repro.obs.ledger import config_digest, read_ledger
    from repro.service import ServiceClient, create_server
    from repro.service.api import result_to_json
    from repro.sim import parallel

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    recipe = make_recipe()
    body = json.dumps(recipe_to_dict(recipe)).encode()
    local = result_to_json(recipe.execute())
    try:
        for source in ("memo", "disk"):
            with create_server(port=0, workers=1, mode="thread") as server, \
                    ServiceClient(server.url, timeout=30) as client:
                if source == "memo":
                    client.wait(client.submit(recipe)["id"], timeout=30)
                status, raw = _post_raw(server, body)
                assert status == 202
                view = json.loads(raw)["job"]
                assert (view["state"], view["source"]) == ("done", source)
                assert raw == (b'{"job": '
                               + json.dumps(view, sort_keys=True).encode()
                               + b', "result": ' + local + b"}")
                assert client.result_bytes(view["id"]) == local
                hit = client.submit(recipe)
                assert client.result_bytes(hit["id"]) == local
            parallel.clear_memo()
    finally:
        parallel.clear_memo()
    records = [r for r in read_ledger() if r.recipe_key == recipe.key()]
    assert [r.source for r in records] == ["run", "memo", "memo", "disk",
                                           "memo"]
    assert {r.config_digest for r in records} == \
        {config_digest(recipe.config)}


def test_http_only_a_job_done_at_submit_carries_its_result(service,
                                                          monkeypatch):
    """Fresh and coalesced replies carry the job alone, as does a hit
    whose result is gone by the time its payload would be read (and a
    GET for it is a 410)."""
    from repro.service import ServiceError
    from repro.sim import parallel

    server, client = service
    gate = _gate_execution(monkeypatch)
    body = json.dumps(recipe_to_dict(make_recipe())).encode()
    try:
        replies = [json.loads(_post_raw(server, body)[1]) for _ in range(2)]
    finally:
        gate.set()
    assert [sorted(r) for r in replies] == [["job"], ["job"]]
    fresh, waiter = (r["job"] for r in replies)
    assert (fresh["state"], waiter["state"]) == ("running", "queued")
    assert waiter["coalesced_into"] == fresh["id"]
    client.wait(waiter["id"], timeout=30)
    hit = json.loads(_post_raw(server, body)[1])
    assert sorted(hit) == ["job", "result"]
    assert hit["result"]["cycles"] > 0
    real = parallel.lookup_result
    lookups = []

    def found_once(key):
        """Found at submit, gone when its payload is read."""
        lookups.append(key)
        return real(key) if len(lookups) == 1 else None

    monkeypatch.setattr(parallel, "lookup_result", found_once)
    gone = json.loads(_post_raw(server, body)[1])
    assert sorted(gone) == ["job"]
    assert (gone["job"]["state"], gone["job"]["source"]) == ("done", "memo")
    with pytest.raises(ServiceError) as excinfo:
        client.result_bytes(gone["job"]["id"])
    assert excinfo.value.status == 410


def test_client_holds_a_hit_payload_once_per_thread(service, monkeypatch):
    """The payload a hit came back with serves one ``result_bytes`` for
    that job on the submitting thread; another thread, a second call,
    or a call after the next submission makes a GET."""
    server, client = service
    d = recipe_to_dict(make_recipe())
    payload = client.result_bytes(
        client.wait(client.submit(d)["id"], timeout=30)["id"])
    handled = _count_requests(monkeypatch)
    hit = client.submit(d)
    result = f"/v1/jobs/{hit['id']}/result"
    seen = []
    other = threading.Thread(
        target=lambda: seen.append(client.result_bytes(hit["id"])))
    other.start()
    other.join(timeout=30)
    assert not other.is_alive()
    assert handled == [("POST", "/v1/jobs"), ("GET", result)]
    for _ in range(2):
        seen.append(client.result_bytes(hit["id"]))
    assert handled == [("POST", "/v1/jobs"), ("GET", result), ("GET", result)]
    again = client.submit(d)
    client.submit(make_recipe())
    seen.append(client.result_bytes(again["id"], timeout=30))
    assert handled[-1] == ("GET", f"/v1/jobs/{again['id']}/result?wait=30")
    assert seen == [payload] * 4


# ---------------------------------------------------------------------------
# What a server keeps


def test_http_server_keeps_bounded_jobs_and_events(monkeypatch):
    """Past its bounds, the server drops the oldest terminal jobs and
    events: never a queued or running job.  A dropped job is as
    unknown as one never submitted, a stale event cursor learns how
    many events it missed, and /metrics still counts every job."""
    from repro.service import ServiceClient, ServiceError, create_server
    from repro.service import jobs
    from repro.sim import parallel

    monkeypatch.setattr(jobs, "KEPT_JOBS", 16)
    monkeypatch.setattr(jobs, "KEPT_EVENTS", 40)
    held = make_recipe()
    gate = threading.Event()

    def execute(item):
        if item[0] == held.key():
            assert gate.wait(timeout=30)
        return _execute_recipe(item)

    monkeypatch.setattr(parallel, "_execute_recipe", execute)
    d = recipe_to_dict(make_recipe())
    try:
        with create_server(port=0, workers=2, mode="thread") as server, \
                ServiceClient(server.url, timeout=30) as client:
            first = client.wait(client.submit(d)["id"], timeout=30)
            running = client.submit(held)
            queued = client.submit(held)
            for _ in range(1000):
                client.result_bytes(client.submit(d)["id"])
            views = client.jobs()
            assert len(views) == 16 + 2
            assert {running["id"], queued["id"]} <= {v["id"] for v in views}
            assert client.health()["jobs"] == \
                {"done": 16, "running": 1, "queued": 1}
            errors = []
            for job_id in (first["id"], "j999999"):
                with pytest.raises(ServiceError) as excinfo:
                    client.job(job_id)
                errors.append((excinfo.value.status, excinfo.value.type,
                               str(excinfo.value).replace(job_id, "?")))
            assert errors[0] == errors[1] and errors[0][0] == 404
            # 2 events for the first job, 2 for the held ones, 1 a hit.
            published = 2 + 2 + 1000
            stale = client._get_json("/v1/events?since=0")
            assert stale["next"] == published
            assert stale["dropped"] == published - 40
            assert [e["seq"] for e in stale["events"]] == \
                list(range(published - 39, published + 1))
            recent = client._get_json(f"/v1/events?since={published - 5}")
            assert (len(recent["events"]), recent["dropped"]) == (5, 0)
            assert recent["events"] == stale["events"][-5:]
            assert client.events(published) == ([], published)
            assert _outcome(client, "memo") == 1000
            gate.set()
            for view in (running, queued):
                assert client.wait(view["id"], timeout=30)["state"] == "done"
            assert client.health()["jobs"] == {"done": 16}
    finally:
        gate.set()


def test_http_bounded_state_under_concurrent_hits(monkeypatch):
    """Four client threads (more than the cores) race hits with the
    bounds patched small and frequent thread switches: every hit gets
    the stored payload from its own reply, and the server ends at its
    bounds with every hit counted."""
    from repro.service import ServiceClient, create_server
    from repro.service import jobs

    monkeypatch.setattr(jobs, "KEPT_JOBS", 8)
    monkeypatch.setattr(jobs, "KEPT_EVENTS", 16)
    d = recipe_to_dict(make_recipe())
    interval = sys.getswitchinterval()
    with create_server(port=0, workers=2, mode="thread") as server, \
            ServiceClient(server.url, timeout=30) as client:
        payload = client.result_bytes(
            client.wait(client.submit(d)["id"], timeout=30)["id"])
        seen: list = []

        def hits() -> None:
            seen.extend(client.result_bytes(client.submit(d)["id"])
                        for _ in range(200))

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hits) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [payload] * 800
        assert client.health()["jobs"] == {"done": 8}
        assert len(client.events(0)[0]) == 16
        assert _outcome(client, "memo") == 800


def test_client_run_recipes_past_the_job_bound(monkeypatch):
    """A 20-recipe grid against a server that keeps 8 terminal jobs
    comes back whole and in order.  Cold, every job is done, and the
    oldest dropped, before the first wait, so a dropped job's recipe is
    submitted again; warm, each payload comes with its own submit
    reply, one request per recipe."""
    from repro.service import ServiceClient, create_server
    from repro.service import jobs
    from repro.service.api import result_to_json

    monkeypatch.setattr(jobs, "KEPT_JOBS", 8)
    recipes = [make_recipe(accesses=60) for _ in range(20)]
    local = [json.loads(result_to_json(r.execute())) for r in recipes]
    with create_server(port=0, workers=2, mode="thread") as server, \
            ServiceClient(server.url, timeout=30) as client:
        real_wait = client.wait

        def wait_once_all_are_done(job_id, timeout=60.0):
            deadline = time.monotonic() + 30
            while set(server.manager.state_counts()) - {"done"}:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            return real_wait(job_id, timeout=timeout)

        monkeypatch.setattr(client, "wait", wait_once_all_are_done)
        handled = _count_requests(monkeypatch)
        assert client.run_recipes(recipes, timeout=30) == local
        assert ("POST", "/v1/jobs") in handled[20:]
        del handled[:]
        assert client.run_recipes(recipes, timeout=30) == local
        assert handled == [("POST", "/v1/jobs")] * 20
        assert client.health()["jobs"] == {"done": 8}


def test_http_health_counts_every_state(service, monkeypatch):
    """/healthz counts the states the job views show, with jobs queued
    (coalesced), running (gated), done and failed at once."""
    import collections

    from repro.sim import parallel

    server, client = service
    gate = threading.Event()
    held, doomed = make_recipe(), make_recipe()

    def execute(item):
        if item[0] == doomed.key():
            raise RuntimeError("engine exploded")
        if item[0] == held.key():
            assert gate.wait(timeout=30)
        return _execute_recipe(item)

    def from_views() -> dict:
        return dict(collections.Counter(v["state"] for v in client.jobs()))

    monkeypatch.setattr(parallel, "_execute_recipe", execute)
    try:
        client.wait(client.submit(make_recipe())["id"], timeout=30)
        client.wait(client.submit(doomed)["id"], timeout=30)
        client.submit(held)
        client.submit(held)
        expected = {"queued": 1, "running": 1, "done": 1, "failed": 1}
        assert client.health()["jobs"] == from_views() == expected
        gate.set()
        for view in client.jobs():
            client.wait(view["id"], timeout=30)
        assert client.health()["jobs"] == from_views() == \
            {"done": 3, "failed": 1}
    finally:
        gate.set()


# ---------------------------------------------------------------------------
# HTTP transport: persistent connections


def _count_accepted(server) -> list:
    """Record each connection ``server`` accepts from now on."""
    httpd = server._httpd
    accepted: list = []
    real = httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        real(request, client_address)

    httpd.process_request = counting
    return accepted


def test_http_keep_alive_responses_are_not_delayed(service):
    """Twenty requests on one kept-alive connection.  With Nagle's
    algorithm on, each response body waited out the client's delayed
    ACK: about 44 ms a request on Linux."""
    server, _ = service
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        latencies = []
        for _ in range(20):
            t0 = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            latencies.append(time.perf_counter() - t0)
            if len(latencies) == 1:
                sock = conn.sock
        assert conn.sock is sock
    finally:
        conn.close()
    assert statistics.median(latencies) < 0.020, latencies


@pytest.mark.parametrize("path, length, status, closes", [
    ("/v1/nope", None, 404, True),       # no endpoint reads the body
    ("/v1/jobs", "abc", 400, True),      # its length cannot be parsed
    ("/v1/jobs", None, 400, False),      # read, then rejected
])
def test_http_unread_request_body_ends_the_connection(service, path,
                                                      length, status,
                                                      closes):
    """Unread body bytes would parse as the next request (a 400 HTML
    page), so the server closes the connection after the response; a
    body that was read leaves it open."""
    server, _ = service
    body = json.dumps({"scheme": "inclusive"}).encode()
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length or str(len(body)))
        conn.endheaders(body)
        response = conn.getresponse()
        assert response.status == status
        assert "error" in json.loads(response.read())
        assert (response.getheader("Connection") == "close") is closes
        assert (conn.sock is None) is closes
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["ok"] is True
    finally:
        conn.close()


def test_http_peer_reset_is_not_a_server_fault(service, capfd):
    """A client that resets its idle keep-alive connection ends it: the
    handler waiting for its next request reports nothing."""
    server, client = service
    httpd = server._httpd
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    conn.request("GET", "/healthz")
    assert conn.getresponse().read()
    # Closing with a zero linger time sends a reset, not a FIN.
    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))
    conn.close()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with httpd._conns_lock:
            if not httpd._conns:
                break
        time.sleep(0.01)
    with httpd._conns_lock:
        assert not httpd._conns, "the reset connection was never closed"
    assert client.health()["ok"] is True
    assert capfd.readouterr() == ("", "")


def test_client_holds_one_connection_per_thread(service):
    server, client = service
    accepted = _count_accepted(server)
    recipes = [make_recipe(accesses=60) for _ in range(10)]
    assert len(client.run_recipes(recipes, timeout=60)) == 10
    assert len(accepted) == 1
    seen = []
    other = threading.Thread(target=lambda: seen.append(client.health()))
    other.start()
    other.join(timeout=30)
    assert not other.is_alive() and seen
    assert len(accepted) == 2
    assert client.health()["ok"] is True
    assert len(accepted) == 2


def test_client_in_a_forked_child_opens_its_own_connection(service):
    import multiprocessing

    server, client = service
    accepted = _count_accepted(server)
    assert client.health()["ok"] is True
    child = multiprocessing.get_context("fork").Process(target=client.health)
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    assert len(accepted) == 2
    assert client.health()["ok"] is True
    assert len(accepted) == 2


def test_client_reconnects_once_after_the_server_drops_it():
    """A restart drops the client's idle connection; the next call
    fails on it and succeeds through one new connection.  With no
    server left, that one retry fails too and the error propagates."""
    from repro.service import ServiceClient, create_server

    server = create_server(port=0, workers=1, mode="thread").start()
    port = server.port
    with ServiceClient(server.url, timeout=30) as client:
        try:
            assert client.health()["ok"] is True
        finally:
            server.close()
        server = create_server(port=port, workers=1, mode="thread").start()
        try:
            accepted = _count_accepted(server)
            assert client._slot().conn.sock is not None
            assert client.health()["ok"] is True
            assert len(accepted) == 1
        finally:
            server.close()
        with pytest.raises(ConnectionRefusedError):
            client.health()


# ---------------------------------------------------------------------------
# CLI verbs


def test_cli_serve_submit_jobs(tmp_path, capsys):
    import json

    from repro.__main__ import main
    from repro.service import create_server

    server = create_server(port=0, workers=1, mode="thread").start()
    try:
        recipe = make_recipe()
        recipe_file = tmp_path / "recipe.json"
        recipe_file.write_text(json.dumps(recipe_to_dict(recipe)))
        rc = main(["submit", "--url", server.url,
                   "--recipe", str(recipe_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "done" in out
        assert "cycles:" in out

        rc = main(["jobs", "--url", server.url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inclusive/lru" in out

        # Flag-built submissions go through the profile workload form.
        rc = main(["submit", "--url", server.url,
                   "--workload", "gcc.1", "--scheme", "noninclusive",
                   "--l2", "256KB", "--accesses", "80"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "noninclusive/lru" in out
    finally:
        server.close()


def test_cli_submit_reports_rejection(tmp_path, capsys):
    import json

    from repro.__main__ import main
    from repro.service import create_server

    server = create_server(port=0, workers=1, mode="thread").start()
    try:
        d = recipe_to_dict(make_recipe(unique=False))
        d["config"]["engine"] = "warp"
        recipe_file = tmp_path / "bad.json"
        recipe_file.write_text(json.dumps(d))
        rc = main(["submit", "--url", server.url,
                   "--recipe", str(recipe_file)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "config.engine" in captured.err
        # An unknown --workload is refused before anything is sent.
        rc = main(["submit", "--url", server.url, "--workload", "mt:gcc.1"])
        assert rc == 2
        assert "gcc.1" in capsys.readouterr().err
        assert server.manager.jobs() == []
    finally:
        server.close()
