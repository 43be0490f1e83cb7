"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span's duration minus the part covered by
its child spans.  Spans nest by their ``parent`` id within a process;
two links cross processes:

* a client ``http.request`` span becomes the parent of the server's
  ``http.dispatch`` span with the same request id that it contains in
  time, so the client span's self time is the HTTP overhead;
* a pool worker's ``parallel.execute`` span takes the request id of the
  service submission with the same recipe key.  Worker spans run beside
  the spans that wait for them, so they are never subtracted from them.

Only spans that start inside a traced round count, and every sum is
divided by the number of traced rounds, so values are per round.
"""

from __future__ import annotations

from collections import defaultdict

from stack.spans import CLIENT_SPAN, REQUEST_SPAN, ROUND_SPAN

SCHEMES = ("inclusive", "noninclusive", "ziv:notinprc",
           "ziv:maxrrpvnotinprc")
ENGINES = ("fast", "object")

#: Self time per round of one span name, in seconds.
SELF_TIME = {
    "workloads.synth_s": "workloads.synth",
    "config_io.recipe_from_dict_s": "config_io.recipe_from_dict",
    "parallel.key_s": "parallel.key",
    "parallel.lookup_s": "parallel.lookup",
    "parallel.store_s": "parallel.store",
    "parallel.run_many_s": "parallel.run_many",
    "parallel.execute_s": "parallel.execute",
    "engine.build_s": "engine.build",
    "engine.run_workload_s": "engine.run_workload",
    "tracebin.chunk_decode_s": "tracebin.chunk_decode",
    "checkpoint.save_s": "checkpoint.save",
    "ledger.append_s": "ledger.append",
    "ledger.read_s": "ledger.read",
    "jobs.submit_s": "jobs.submit",
    "jobs.wait_s": "jobs.wait",
    "api.result_to_json_s": "api.result_to_json",
    "http.dispatch_s": "http.dispatch",
}

#: Calls per round of one span name.
CALLS = {
    "parallel.key_calls": "parallel.key",
    "tracebin.chunks": "tracebin.chunk_decode",
    "checkpoint.saves": "checkpoint.save",
    "ledger.appends": "ledger.append",
}

#: Sum per round of one span attribute.
ATTRIBUTE = {
    "workloads.records": ("workloads.synth", "records"),
    "parallel.store_bytes": ("parallel.store", "bytes"),
    "checkpoint.bytes": ("checkpoint.save", "bytes"),
    "api.payload_bytes": ("api.result_to_json", "bytes"),
}

OUTCOMES = ("fresh", "coalesced", "memo", "disk", "failed")


def scheme_slug(scheme: str) -> str:
    return scheme.replace(":", "-")


#: Every per-layer metric, in report order.  Units and directions live
#: with the metric declarations in BENCHMARK.json.
PER_LAYER = (
    *SELF_TIME,
    *CALLS,
    *ATTRIBUTE,
    "parallel.lookup_hit_ratio",
    "parallel.queue_wait_s",
    "parallel.pool_utilization",
    *(f"engine.ns_per_access.{engine}.{scheme_slug(scheme)}"
      for engine in ENGINES for scheme in SCHEMES),
    "engine.ns_per_access.streamed",
    "http.overhead_s",
    "http.metrics_scrape_s",
    *(f"jobs.outcome.{outcome}" for outcome in OUTCOMES),
    "jobs.dedup_ratio",
    # Client-observed latency by request class, from untraced rounds.
    "jobs.hit_latency_p50_ms",
    "jobs.hit_latency_p95_ms",
    "jobs.hit_samples",
    "jobs.fresh_latency_p50_ms",
    "jobs.fresh_latency_p75_ms",
    "jobs.fresh_samples",
    # Modelled design: exact counts over the first round's results.
    "sim.llc_misses",
    "sim.relocations",
    "sim.inclusion_victims_llc",
    # The tracing harness itself.
    "trace.overhead_frac",
    "trace.coverage",
)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _link_requests(spans: list) -> None:
    """Parent each server dispatch span to the client request it served."""
    requests = defaultdict(list)
    for s in spans:
        if s["name"] == REQUEST_SPAN:
            requests[s.get("rid")].append(s)
    for s in spans:
        if s["name"] != "http.dispatch" or s["parent"] is not None:
            continue
        around = [r for r in requests.get(s.get("rid"), ())
                  if r["start"] <= s["start"] and s["end"] <= r["end"]]
        if around:
            s["parent"] = max(around, key=lambda r: r["start"])["id"]


def _fill_request_ids(spans: list, by_id: dict) -> None:
    """Give every span the request id of its nearest tagged ancestor, and
    worker executions the id of the submission that dispatched them."""
    rid_of_key = {s["key"]: s["rid"] for s in spans
                  if s["name"] == "jobs.submit"
                  and s.get("outcome") == "fresh"}
    for s in spans:
        if s["name"] == "parallel.execute" and s.get("key") in rid_of_key:
            s.setdefault("rid", rid_of_key[s["key"]])
    for s in spans:
        node = s
        while "rid" not in node and node["parent"] in by_id:
            node = by_id[node["parent"]]
        if "rid" in node:
            s["rid"] = node["rid"]


def analyse(spans: list, workers: int) -> dict:
    """Per-layer metrics (see :data:`PER_LAYER`) from one run's spans.

    Metrics that come from the run's rounds rather than its spans
    (latency by class, modelled counts, tracing overhead) are left at 0
    for the caller to fill."""
    roots = [s for s in spans if s["name"] in (ROUND_SPAN, CLIENT_SPAN)]
    if not roots:
        raise ValueError("no traced round spans recorded")
    windows = [(r["start"], r["end"]) for r in roots]
    spans = [s for s in spans
             if any(lo <= s["start"] <= hi for lo, hi in windows)]
    _link_requests(spans)
    by_id = {s["id"]: s for s in spans}
    _fill_request_ids(spans, by_id)
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] in by_id:
            covered[s["parent"]] += _duration(s)
    for s in spans:
        s["self"] = _duration(s) - covered[s["id"]]

    per_round = defaultdict(list)
    for r in roots:
        per_round[r["round"]].append(r)
    rounds = len(per_round)
    round_wall = sum(
        max(r["end"] for r in group) - min(r["start"] for r in group)
        for group in per_round.values())
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    out = {name: 0.0 for name in PER_LAYER}
    for metric, name in SELF_TIME.items():
        out[metric] = sum(s["self"] for s in by_name[name]) / rounds
    for metric, name in CALLS.items():
        out[metric] = len(by_name[name]) / rounds
    for metric, (name, attr) in ATTRIBUTE.items():
        out[metric] = sum(s.get(attr, 0) for s in by_name[name]) / rounds

    lookups = by_name["parallel.lookup"]
    if lookups:
        out["parallel.lookup_hit_ratio"] = (
            sum(1 for s in lookups if s["hit"]) / len(lookups))

    # Queue wait: from the start of the enclosing run_many call, or from
    # the return of the service submission, to the execution's start.
    executes = by_name["parallel.execute"]
    sweeps = by_name["parallel.run_many"]
    submitted = {s["key"]: s["end"] for s in by_name["jobs.submit"]
                 if s.get("outcome") == "fresh"}
    wait = 0.0
    for s in executes:
        enclosing = [m["start"] for m in sweeps
                     if m["start"] <= s["start"] <= m["end"]]
        if enclosing:
            wait += s["start"] - max(enclosing)
        elif s.get("key") in submitted:
            wait += max(0.0, s["start"] - submitted[s["key"]])
    out["parallel.queue_wait_s"] = wait / rounds
    # Pool utilization: worker busy time over the time the pool was
    # available -- the run_many calls of a sweep, the rounds of a service.
    busy = sum(_duration(s) for s in executes)
    pool_wall = sum(_duration(m) for m in sweeps) or round_wall
    if busy:
        out["parallel.pool_utilization"] = busy / (workers * pool_wall)

    runs = defaultdict(lambda: [0.0, 0])
    for s in by_name["engine.run"]:
        slot = ("streamed" if s["streamed"]
                else f"{s['engine']}.{scheme_slug(s['scheme'])}")
        runs[slot][0] += s["self"]
        runs[slot][1] += s["accesses"]
    for slot, (self_s, accesses) in runs.items():
        metric = f"engine.ns_per_access.{slot}"
        if metric in out and accesses:
            out[metric] = self_s / accesses * 1e9

    requests = by_name[REQUEST_SPAN]
    out["http.overhead_s"] = sum(
        s["self"] for s in requests if s["route"] != "metrics") / rounds
    out["http.metrics_scrape_s"] = sum(
        _duration(s) for s in requests if s["route"] == "metrics") / rounds

    submits = by_name["jobs.submit"]
    for outcome in OUTCOMES:
        out[f"jobs.outcome.{outcome}"] = sum(
            1 for s in submits if s.get("outcome") == outcome) / rounds
    if submits:
        out["jobs.dedup_ratio"] = sum(
            1 for s in submits
            if s.get("outcome") in ("coalesced", "memo", "disk")
        ) / len(submits)

    root_time = sum(_duration(r) for r in roots)
    out["trace.coverage"] = 1.0 - sum(r["self"] for r in roots) / root_time
    return out


def request_ids_by_process(spans: list) -> dict:
    """Request id -> the set of process ids whose spans carry it (after
    the same linking :func:`analyse` does); used to show that one id
    follows a request from the client into the server and its workers."""
    by_id = {s["id"]: s for s in spans}
    _link_requests(spans)
    _fill_request_ids(spans, by_id)
    out = defaultdict(set)
    for s in spans:
        if s.get("rid"):
            out[s["rid"]].add(s["pid"])
    return out
