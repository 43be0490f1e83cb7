"""Span recording for traced benchmark runs.

A span is one call into a layer: its name, start and end on the
monotonic clock (one clock for every process on the host, so spans from
the benchmark, the service and the pool workers line up), the span that
caused it, a request id, the recording process, and a few attributes
the layer analysis needs (bytes written, cache hit, recipe key).

Spans are kept in memory.  A process appends its finished spans to
``spans-<pid>.jsonl`` in the run's span directory when a root span (the
outermost span of a thread) closes: pool workers are terminated without
running exit handlers, so the end of each unit of work is the last point
at which their spans can be saved.

:func:`install` wraps the public entry points of each layer, patching
every name where its caller looks it up (``repro.service.server.
recipe_from_dict``, ``repro.sim.engine.save_checkpoint``, ...).  It is
called before any pool forks, so workers inherit the wrappers.  Nothing
inside ``Simulation.run`` is wrapped: per-access layers show up as the
residual self time of the ``engine.run`` span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

#: Names of the spans the benchmark itself opens around its work; every
#: other span name is a layer of the program.
ROUND_SPAN = "bench.round"
CLIENT_SPAN = "bench.client"
REQUEST_SPAN = "http.request"


class Tracer:
    """Records spans for the current process and the processes it forks."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        # A forked child starts with no open spans and no unsaved ones:
        # the parent saves its own, and a span the parent left open must
        # not become the parent of work done in another process.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._done: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[str]) -> None:
        """Tag spans that close on this thread from now on with ``rid``."""
        self._local.rid = rid

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        stack = self._stack()
        rec = {
            "id": f"{self._pid}-{next(self._ids)}",
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "pid": self._pid,
        }
        rec.update(attrs)
        stack.append(rec)
        rec["start"] = time.monotonic()
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            stack.pop()
            rid = getattr(self._local, "rid", None)
            if rid is not None:
                rec.setdefault("rid", rid)
            with self._lock:
                self._done.append(rec)
            if not stack:
                self.flush()

    def flush(self) -> None:
        """Append this process's finished spans to its span file."""
        with self._lock:
            done, self._done = self._done, []
        if not done:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in done))

    def wrap(self, owner: Any, attr: str, name: str,
             describe: Optional[Callable] = None) -> Callable[[], None]:
        """Replace ``owner.attr`` by a spanning wrapper; returns the undo.

        ``describe(args, kwargs, result)`` returns extra span attributes."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = original(*args, **kwargs)
                if describe is not None:
                    rec.update(describe(args, kwargs, out))
                return out

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced rounds: records nothing."""

    def span(self, name: str, **attrs: Any):
        return contextlib.nullcontext({})

    def set_request(self, rid: Optional[str]) -> None:
        pass


def load_spans(out_dir: Path) -> list:
    """Every span saved under ``out_dir``, from every process."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _describe_run(args, kwargs, out) -> dict:
    sim = args[0]
    return {
        "engine": getattr(sim.hierarchy, "engine_name", "object"),
        "scheme": out.scheme,
        "accesses": out.stats.total_accesses,
        # Binary traces stream chunk by chunk; in-memory workloads do not
        # carry a chunk size.
        "streamed": bool(getattr(sim.workload, "chunk_records", 0)),
    }


def _submit_outcome(view: dict) -> str:
    if view["state"] == "done":
        return view["source"]
    if view["state"] == "failed":
        return "failed"
    return "coalesced" if view["coalesced_into"] else "fresh"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer entry point; returns a function that
    restores the originals."""
    import repro.workloads
    import repro.workloads.mixes
    from repro.hierarchy.cmp import CacheHierarchy
    from repro.obs import ledger
    from repro.service import jobs, server
    from repro.sim import engine, parallel, tracebin
    from repro.sim.fast import FastHierarchy

    undo: list = []

    def wrap(owner, attr, name, describe=None):
        undo.append(tracer.wrap(owner, attr, name, describe))

    def records(args, kwargs, out):
        return {"records": len(out)}

    def submitted(args, kwargs, view):
        # The job id is the request id of the whole HTTP request.
        tracer.set_request(view["id"])
        return {"rid": view["id"], "key": view["key"],
                "outcome": _submit_outcome(view)}

    wrap(repro.workloads, "build_trace", "workloads.synth", records)
    wrap(repro.workloads.mixes, "build_trace", "workloads.synth", records)
    wrap(server, "recipe_from_dict", "config_io.recipe_from_dict")
    wrap(parallel.RunRecipe, "key", "parallel.key")
    wrap(parallel, "lookup_result", "parallel.lookup",
         lambda a, k, out: {"hit": out is not None})
    wrap(parallel, "store_result", "parallel.store",
         lambda a, k, out: {"bytes": _file_size(parallel._cache_path(a[0]))})
    wrap(parallel, "run_many", "parallel.run_many")
    wrap(parallel, "_execute_recipe", "parallel.execute",
         lambda a, k, out: {"key": a[0][0]})
    wrap(FastHierarchy, "__init__", "engine.build")
    wrap(CacheHierarchy, "__init__", "engine.build")
    wrap(engine.Simulation, "run", "engine.run", _describe_run)
    wrap(engine, "run_workload", "engine.run_workload")
    wrap(tracebin.TraceBinReader, "chunk", "tracebin.chunk_decode")
    wrap(engine, "save_checkpoint", "checkpoint.save",
         lambda a, k, out: {"bytes": _file_size(a[0])})
    wrap(ledger, "append_record", "ledger.append")
    wrap(ledger, "read_ledger", "ledger.read")
    wrap(jobs.JobManager, "submit", "jobs.submit", submitted)
    wrap(jobs.JobManager, "wait", "jobs.wait")
    wrap(server, "result_to_json", "api.result_to_json",
         lambda a, k, out: {"bytes": len(out)})

    handler = server._Handler
    dispatch = handler.__dict__["_dispatch"]

    @functools.wraps(dispatch)
    def traced_dispatch(self, method):
        path = self.path.split("?", 1)[0]
        parts = path.strip("/").split("/")
        job_id = parts[2] if parts[:2] == ["v1", "jobs"] and len(parts) > 2 \
            else None
        tracer.set_request(job_id)
        try:
            with tracer.span("http.dispatch", route=f"{method} {path}"):
                return dispatch(self, method)
        finally:
            tracer.set_request(None)

    handler._dispatch = traced_dispatch
    undo.append(lambda: setattr(handler, "_dispatch", dispatch))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
