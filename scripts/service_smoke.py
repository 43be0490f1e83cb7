#!/usr/bin/env python
"""CI service smoke: drive the simulation job service over real HTTP.

Starts a process-mode :class:`~repro.service.server.ServiceServer` on
an ephemeral port, then asserts the service's core guarantees through
the client, end to end:

* submit/wait/result on **both engines**, with the engines agreeing on
  every counter (the differential-oracle contract, now over HTTP);
* resubmission resolves from storage without a fresh execution, and the
  payload bytes are identical;
* three concurrent clients racing one recipe share a single execution
  -- proven by the ledger: exactly one ``run`` record, two cache-hit
  records, bit-identical payloads;
* ``profile`` and ``mt`` workloads travel as specs: the server keys
  each like a local recipe built from the synthesized records, the
  process pool's payload equals a local execution byte for byte, and a
  resubmission resolves from the memo;
* recipe rejections are structured 400s naming the offending field,
  and count into ``/metrics``;
* ``/metrics`` parses and its job counters reconcile with what we
  submitted; the ledger grew by exactly the expected record count;
* SIGKILLing the pool workers while a long job runs fails that job with
  ``BrokenProcessPool``, and the next submission runs fresh on a new
  pool;
* twenty hit jobs over one raw keep-alive connection take a median
  under 20 ms each (no response waits out a delayed ACK), and a POST
  whose body the server never reads (a 404) leaves the connection
  usable for the next request;
* one body resubmitted 200 times over one keep-alive connection gets
  byte-identical payloads and leaves 200 ``memo`` ledger records, and
  ``/metrics`` counts each of them as a memo run and a memo job; a
  malformed body and an empty one each count as rejected.  Each reply
  to ``POST /v1/jobs`` carries the payload ``GET .../result`` serves,
  byte for byte;
* the same body resubmitted 200 times through a ``ServiceClient``
  takes exactly one request per hit (submit and result);
* 20,000 more hits leave the server holding exactly its bounds of
  terminal jobs and events, and grow its resident memory by less than
  5 MB over the last 10,000;
* 6,144 distinct fresh recipes, more than the server keeps results and
  payloads for, leave it holding exactly those bounds, and grow its
  resident memory by less than 3 MB over the last 2,048.

Exit 0 on success; any assertion failure is a non-zero exit.

Usage::

    REPRO_CACHE_DIR=$(mktemp -d) python scripts/service_smoke.py
"""

from __future__ import annotations

import http.client
import itertools
import json
import multiprocessing
import os
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config_io import config_to_dict, recipe_to_dict  # noqa: E402
from repro.obs.ledger import ledger_path, read_ledger  # noqa: E402
from repro.obs.registry import parse_prometheus  # noqa: E402
from repro.params import (  # noqa: E402
    CacheGeometry,
    DirectoryGeometry,
    LLCGeometry,
    SystemConfig,
)
from repro.service import (  # noqa: E402
    ServiceClient,
    ServiceError,
    create_server,
)
from repro.service import server as server_module  # noqa: E402
from repro.service.api import result_to_json  # noqa: E402
from repro.service.jobs import KEPT_EVENTS, KEPT_JOBS  # noqa: E402
from repro.sim import parallel  # noqa: E402
from repro.sim.parallel import RunRecipe, make_recipe  # noqa: E402
from repro.sim.trace import (  # noqa: E402
    CoreTrace,
    TraceRecord,
    Workload,
)
from repro.workloads import (  # noqa: E402
    homogeneous_mix,
    multithreaded_workload,
)

#: (kind, generator, app) of the spec phase: one of each spec kind.
SPECS = (("profile", homogeneous_mix, "gcc.1"),
         ("mt", multithreaded_workload, "vips"))

#: Hit jobs of the keep-alive phase.
KEEP_ALIVE_HITS = 20

#: Resubmissions of one body in the hit phase, and in the client pass.
HITS = 200

#: Hits of the bound phase: its second half is past the job and event
#: bounds.
BOUND_HITS = 20_000

#: How much the bound phase's last half may grow the server's resident
#: memory.  Without the bounds it grows by about 18 MB.
BOUND_GROWTH_MB = 5.0

#: Distinct fresh recipes in each half of the memo phase.  The first
#: half replaces every kept job, so the second starts with every bound
#: reached and evicts a result and a payload per key.
MEMO_KEYS = (KEPT_JOBS, 2048)

#: How much the memo phase's second half may grow the server's resident
#: memory.  Without the result and payload bounds it grows by about
#: 8.5 MB (4.2 KB a key).
MEMO_GROWTH_MB = 3.0


def small_config(engine: str = "object") -> SystemConfig:
    return SystemConfig(
        cores=2,
        l1=CacheGeometry(sets=1, ways=2),
        l2=CacheGeometry(sets=2, ways=4),
        llc=LLCGeometry(banks=2, sets_per_bank=4, ways=4),
        directory=DirectoryGeometry(sets=2, ways=8),
        engine=engine,
    )


def small_workload(k: int = 0, length: int = 600) -> Workload:
    traces = [
        CoreTrace(
            [TraceRecord(1, (c + 1) * 256 + (i * (k + 2)) % 48,
                         i % 5 == 0, i % 4) for i in range(length)]
        )
        for c in range(2)
    ]
    return Workload(traces, f"svc-smoke-wl{k}")


def keep_alive_phase(server, body: dict) -> None:
    """Submit a stored recipe and fetch its payload KEEP_ALIVE_HITS
    times over one raw ``http.client`` connection, then send a POST to
    an unknown path and a GET on the same connection."""
    data = json.dumps(body).encode()
    headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)

    def call(method: str, path: str, status: int) -> bytes:
        conn.request(method, path, body=data if method == "POST" else None,
                     headers=headers)
        response = conn.getresponse()
        raw = response.read()
        assert response.status == status, (method, path, raw[:300])
        return raw

    try:
        latencies = []
        for _ in range(KEEP_ALIVE_HITS):
            t0 = time.perf_counter()
            view = json.loads(call("POST", "/v1/jobs", 202))["job"]
            assert view["state"] == "done", view
            call("GET", f"/v1/jobs/{view['id']}/result", 200)
            latencies.append(time.perf_counter() - t0)
            if len(latencies) == 1:
                sock = conn.sock
        assert conn.sock is sock, "the hits took more than one connection"
        call("POST", "/v1/nope", 404)
        assert json.loads(call("GET", "/healthz", 200))["ok"] is True
    finally:
        conn.close()
    median_ms = statistics.median(latencies) * 1e3
    assert median_ms < 20.0, f"keep-alive hit median {median_ms:.1f} ms"


def hit_phase(server, client: ServiceClient, body: dict) -> bytes:
    """Resubmit one stored recipe HITS times over one keep-alive
    connection, each reply carrying the payload; then send a malformed
    body and an empty one.  Returns the payload."""
    data = json.dumps(body).encode()
    headers = {"Content-Type": "application/json"}

    def counts() -> "tuple[int, int, int]":
        metrics = parse_prometheus(client.metrics())
        runs = sum(value for (name, labels), value in metrics.items()
                   if name == "repro_runs_total"
                   and ("source", "memo") in labels)
        jobs = [metrics.get(("repro_service_jobs_total",
                             (("outcome", outcome),)), 0)
                for outcome in ("memo", "rejected")]
        return runs, jobs[0], jobs[1]

    records = len(read_ledger())
    runs, memo, rejected = counts()
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)

    def call(method: str, path: str, status: int,
             payload: "bytes | None" = None) -> bytes:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        assert response.status == status, (method, path, raw[:300])
        return raw

    try:
        payloads = set()
        sock = None
        for _ in range(HITS):
            reply = call("POST", "/v1/jobs", 202, data)
            view = json.loads(reply)["job"]
            assert (view["state"], view["source"]) == ("done", "memo"), view
            payload = call("GET", f"/v1/jobs/{view['id']}/result", 200)
            assert reply == (b'{"job": '
                             + json.dumps(view, sort_keys=True).encode()
                             + b', "result": ' + payload + b"}"), reply[:300]
            payloads.add(payload)
            if sock is None:
                sock = conn.sock
        assert conn.sock is sock, "the hits took more than one connection"
        assert len(payloads) == 1, f"{len(payloads)} different payloads"
        call("POST", "/v1/jobs", 400, b"{not json")
        call("POST", "/v1/jobs", 400, b"")
    finally:
        conn.close()
    added = read_ledger()[records:]
    assert [r.source for r in added] == ["memo"] * HITS, len(added)
    after = counts()
    assert after == (runs + HITS, memo + HITS, rejected + 2), after
    return payloads.pop()


def client_phase(client: ServiceClient, body: dict, payload: bytes) -> None:
    """Resubmit one stored recipe HITS times through the client, and
    count the requests the in-process server handles: one per hit."""
    handled = []
    dispatch = server_module._Handler._dispatch

    def counting(handler, method: str) -> None:
        handled.append((method, handler.path))
        dispatch(handler, method)

    server_module._Handler._dispatch = counting
    try:
        for _ in range(HITS):
            view = client.submit(body)
            assert client.result_bytes(view["id"]) == payload
    finally:
        server_module._Handler._dispatch = dispatch
    assert handled == [("POST", "/v1/jobs")] * HITS, handled[:4]


def vm_rss_mb() -> float:
    """This process's resident memory (the server runs in it)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


def bound_phase(server, client: ServiceClient, body: dict) -> None:
    """Serve BOUND_HITS hits of one stored recipe: the server ends up
    holding its bounds of terminal jobs and events, and its memory
    stops growing once they are reached."""
    rss = []
    for _ in range(2):
        for _ in range(BOUND_HITS // 2):
            client.result_bytes(client.submit(body)["id"])
        rss.append(vm_rss_mb())
    growth = rss[1] - rss[0]
    assert growth < BOUND_GROWTH_MB, \
        f"{BOUND_HITS // 2} hits past the bounds grew VmRSS by {growth:.1f} MB"
    assert len(client.jobs()) == KEPT_JOBS
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request("GET", "/v1/events?since=0")
        events = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    assert len(events["events"]) == KEPT_EVENTS, len(events["events"])
    assert events["dropped"] == events["next"] - KEPT_EVENTS, events["dropped"]


def memo_phase(server, client: ServiceClient) -> None:
    """Resolve sum(MEMO_KEYS) distinct fresh recipes: the server ends
    up holding its bounds of results and payloads, and its memory stops
    growing once they are reached."""
    config = config_to_dict(small_config("fast"))
    seeds = itertools.count(1)
    rss = []
    for keys in MEMO_KEYS:
        for _ in range(0, keys, 256):
            client.run_recipes([
                {"workload": {"kind": "profile", "app": "gcc.1", "cores": 2,
                              "accesses": 20, "seed": next(seeds)},
                 "scheme": "inclusive", "config": config}
                for _ in range(256)
            ])
        rss.append(vm_rss_mb())
    growth = rss[1] - rss[0]
    assert growth < MEMO_GROWTH_MB, \
        f"{MEMO_KEYS[1]} fresh keys past the memo bounds grew VmRSS by " \
        f"{growth:.1f} MB"
    assert len(parallel._MEMO) == parallel.MEMO_ENTRIES
    assert len(server.manager._payloads) == parallel.MEMO_ENTRIES


def main() -> int:
    start = len(read_ledger())
    server = create_server(port=0, workers=2, mode="process").start()
    client = ServiceClient(server.url, timeout=180.0)
    try:
        assert client.health()["ok"] is True

        # -- both engines over HTTP, grid of 2 schemes x 2 workloads ----
        grid = [
            RunRecipe(small_workload(k), scheme, small_config(engine))
            for engine in ("object", "fast")
            for scheme in ("inclusive", "ziv:notinprc")
            for k in range(2)
        ]
        payloads = client.run_recipes(
            [recipe_to_dict(r) for r in grid], timeout=180.0
        )
        assert len(payloads) == len(grid)

        # engines agree on every counter: pair object/fast payloads of
        # the same (scheme, workload) point
        half = len(grid) // 2
        for obj, fast in zip(payloads[:half], payloads[half:]):
            assert obj["summary"] == fast["summary"], (obj, fast)
            assert obj["cycles"] == fast["cycles"]

        views = {v["id"]: v for v in client.jobs()}
        assert sorted(v["source"] for v in views.values()) == \
            ["run"] * len(grid)

        # -- resubmission: storage hit, identical bytes -----------------
        d0 = recipe_to_dict(grid[0])
        first_id = client.jobs()[0]["id"]
        dupe = client.submit(d0)
        assert dupe["state"] == "done"
        assert dupe["source"] in ("memo", "disk")
        assert client.result_bytes(dupe["id"]) == \
            client.result_bytes(first_id)

        # -- concurrent clients: one execution, ledger-proven -----------
        race = RunRecipe(small_workload(7, length=900), "qbs",
                         small_config("object"))
        race_dict = recipe_to_dict(race)
        outcomes: list = [None] * 3

        def racer(i: int) -> None:
            with ServiceClient(server.url, timeout=180.0) as c:
                final = c.wait(c.submit(race_dict)["id"], timeout=180.0)
                outcomes[i] = (final["source"],
                               c.result_bytes(final["id"]))

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        assert all(o is not None for o in outcomes), "racer timed out"
        sources = sorted(s for s, _ in outcomes)
        assert sources.count("run") == 1, sources
        assert len({p for _, p in outcomes}) == 1, "payloads differ"
        race_records = [r.source for r in read_ledger()
                        if r.recipe_key == race.key()]
        assert sorted(race_records).count("run") == 1, race_records
        assert len(race_records) == 3, race_records

        # -- specs: synthesized where the job executes ------------------
        for kind, build, app in SPECS:
            local = make_recipe(build(app, cores=2, n_accesses=300, seed=11),
                                "ziv:notinprc", config=small_config("fast"))
            body = {
                "workload": {"kind": kind, "app": app, "cores": 2,
                             "accesses": 300, "seed": 11},
                "scheme": "ziv:notinprc",
                "config": config_to_dict(local.config),
            }
            final = client.wait(client.submit(body)["id"], timeout=180.0)
            assert final["state"] == "done", final
            assert final["source"] == "run", final
            assert final["key"] == local.key(), (final, local.key())
            assert client.result_bytes(final["id"]) == \
                result_to_json(local.execute()), kind
            again = client.submit(body)
            assert again["source"] == "memo", again

        # -- structured rejections --------------------------------------
        for mutate, want_field in (
            (lambda d: d["config"].__setitem__("engine", "warp"),
             "config.engine"),
            (lambda d: d.__setitem__("scheme", "nonesuch"), "scheme"),
        ):
            bad = recipe_to_dict(grid[0])
            bad["config"] = dict(bad["config"])
            mutate(bad)
            try:
                client.submit(bad)
                raise AssertionError("bad recipe must be rejected")
            except ServiceError as err:
                assert err.status == 400, err
                assert err.field == want_field, err

        # -- metrics reconcile ------------------------------------------
        metrics = parse_prometheus(client.metrics())

        def outcome(name: str) -> int:
            return metrics.get(
                ("repro_service_jobs_total", (("outcome", name),)), 0
            )

        # fresh: the grid + the race primary + one per spec; memo/disk:
        # dupe + 2 racers + one per spec
        assert outcome("fresh") == len(grid) + 1 + len(SPECS), metrics
        assert outcome("memo") + outcome("disk") == 3 + len(SPECS)
        assert outcome("rejected") == 2
        assert outcome("failed") == 0
        assert metrics[("repro_service_jobs_inflight", ())] == 0
        assert ("repro_ledger_records", ()) in metrics

        # -- ledger growth accounting -----------------------------------
        grown = len(read_ledger()) - start
        # grid (fresh) + dupe + race (1 run + 2 cache hits) + specs (1
        # run + 1 cache hit each)
        expected = len(grid) + 1 + 3 + 2 * len(SPECS)
        assert grown == expected, (grown, expected)

        # -- kill phase: a dead worker fails its job, not the service ---
        # Long enough that the workers die well before it could finish.
        long_job = {
            "workload": {"kind": "profile", "app": "gcc.1", "cores": 2,
                         "accesses": 100_000, "seed": 5},
            "scheme": "inclusive",
            "config": config_to_dict(small_config("object")),
        }
        doomed = client.submit(long_job)
        assert doomed["state"] == "running", doomed
        workers = multiprocessing.active_children()
        assert workers, "the process pool has no live workers"
        for proc in workers:
            os.kill(proc.pid, signal.SIGKILL)
        doomed = client.wait(doomed["id"], timeout=180.0)
        assert doomed["state"] == "failed", doomed
        assert "BrokenProcessPool" in doomed["error"], doomed
        after = client.submit(recipe_to_dict(
            RunRecipe(small_workload(8), "inclusive", small_config())
        ))
        after = client.wait(after["id"], timeout=180.0)
        assert (after["state"], after["source"]) == ("done", "run"), after
        metrics = parse_prometheus(client.metrics())
        assert outcome("failed") == 1, metrics
        assert metrics[("repro_service_jobs_inflight", ())] == 0
        # The failed job leaves no record; the fresh one leaves its run.
        grown = len(read_ledger()) - start
        expected += 1
        assert grown == expected, (grown, expected)

        # -- keep-alive: one connection, no delayed-ACK stall -----------
        keep_alive_phase(server, d0)
        grown = len(read_ledger()) - start
        expected += KEEP_ALIVE_HITS
        assert grown == expected, (grown, expected)

        # -- hits: one parse per body, one payload per key --------------
        payload = hit_phase(server, client, d0)
        grown = len(read_ledger()) - start
        expected += HITS
        assert grown == expected, (grown, expected)

        # -- hits through the client: one round trip each ---------------
        client_phase(client, d0, payload)

        # -- bounds: what the server keeps stops growing ----------------
        bound_phase(server, client, d0)
        grown = len(read_ledger()) - start
        expected += HITS + BOUND_HITS
        assert grown == expected, (grown, expected)

        # -- memos: results and payloads of fresh keys stay bounded -----
        memo_phase(server, client)
        grown = len(read_ledger()) - start
        expected += sum(MEMO_KEYS)
        assert grown == expected, (grown, expected)
    finally:
        client.close()
        server.close()

    print(
        f"service smoke: {expected} resolution(s) over HTTP at "
        f"{server.url}, ledger {ledger_path()} grew by {grown}, "
        f"one execution per key, both engines agree, specs match "
        f"local runs, a killed pool fails one job, keep-alive hits "
        f"do not stall, {HITS} resubmissions serve one payload in "
        f"their replies, a client hit is one request, "
        f"{BOUND_HITS} hits leave the server at its bounds, and "
        f"{sum(MEMO_KEYS)} fresh keys leave its memos at theirs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
