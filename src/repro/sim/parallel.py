"""Parallel execution layer with a persistent on-disk result cache.

Cache-simulation studies are embarrassingly parallel across runs: every
run is a deterministic function of its *recipe* (configuration, scheme,
LLC policy, scheduling mode, workload) and shares no state with any other
run.  This module exploits that twice over:

* :func:`run_many` is the one path that resolves recipes: memo/disk
  lookup, dedupe, execute, store, ledger record, heartbeat.  Hits
  resolve first; the unique misses run in-process, or, with ``jobs`` >
  1, on a ``concurrent.futures`` process pool whose initializer hands
  each worker the call's ``(key, recipe)`` misses once (inherited under
  ``fork``, pickled once per worker under ``spawn``), so a task is just
  an index and only its ``(key, result, wall_s)`` comes back.  Results
  are published in completion order and returned in submission order,
  so the output is bit-identical whatever ``jobs`` is.  A worker that
  dies fails the call with ``BrokenProcessPool`` after every completed
  result is published.  The simulation service resolves through the
  same pieces: :func:`process_pool`, :func:`_execute_recipe`,
  :func:`publish_result` and :func:`record_resolution`.

* Every completed recipe is stored in a **persistent result cache** under
  ``.repro_cache/`` keyed by a stable content hash of the complete recipe
  (workload records included) plus a code-version tag.  A recipe that ever
  completed -- in any process, any session -- is never simulated again.

Environment knobs
-----------------
``REPRO_CACHE=off``       disable the disk cache (read *and* write)
``REPRO_CACHE_DIR=path``  relocate the cache (default ``./.repro_cache``)
``REPRO_MP_START=method`` multiprocessing start method (default: ``fork``
                          where available, else ``spawn``; the worker is
                          spawn-safe either way)

Invalidation
------------
Keys embed :data:`CACHE_VERSION`.  Bump it whenever a change alters
simulation *outcomes* (counters, timing, replacement behaviour); pure
refactors and speedups keep it.  ``python -m repro cache clear`` wipes the
cache manually.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.obs import ledger
from repro.params import SystemConfig
from repro.sim.engine import SimResult, Simulation
from repro.sim.trace import Workload

#: Version tag baked into every cache key.  Bump on any change that
#: alters simulation outcomes; stale entries then miss instead of lying.
#: "2": SimResult grew the ``audit`` field (invariant-audit reports);
#: audit settings ride the config and thus the key, so audited and
#: unaudited runs never alias.
#: "3": SimResult grew the ``telemetry`` field; pre-telemetry pickles
#: would deserialise without the attribute.
#: "4": SystemConfig grew the ``engine`` field (object vs fast array
#: engine); pre-field configs hash without it, so results from either
#: engine must never alias entries keyed before the field existed.
#: "5": recipes may carry a TraceRef (path + content fingerprint) in
#: place of an in-memory workload.  The fingerprint preimage is shared
#: (binary headers replicate Workload.fingerprint exactly), which is
#: only sound now that streamed and in-memory runs are enforced
#: bit-identical -- entries keyed before that guarantee must not alias.
#: "6": SimResult grew the ``profile`` field (phase-profiler output) and
#: SystemConfig the ``profile`` section; pre-profile pickles would
#: deserialise without the attribute, and profiled runs must never
#: alias entries keyed before the section joined the hash preimage.
#: "7": SimResult swapped ``profile`` for ``phases`` (every run times
#: its phases) and SystemConfig lost the ``profile`` section; older
#: pickles would deserialise without ``phases``.
#: "8": a trace's fingerprint hashes its records packed in the tracebin
#: body layout, not as decimal text (tracebin format 2), so no key or
#: ledger fingerprint matches one taken before.
CACHE_VERSION = "8"

_DEFAULT_CACHE_DIR = ".repro_cache"


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunRecipe:
    """A fully specified, picklable simulation run.

    Carries everything a worker process needs to rebuild the hierarchy
    from scratch: the (frozen, picklable) :class:`SystemConfig`, the
    scheme/policy names plus keyword arguments as sorted item tuples, the
    scheduling mode, and the workload itself.  A recipe that
    :func:`needs_oracle` (``policy="belady"`` or scheme ``ziv:oracle``)
    must use ``scheduling="lockstep"``; the worker rebuilds the next-use
    oracle from the workload's canonical lock-step stream.

    ``workload`` may instead be a reference: a
    :class:`~repro.sim.tracebin.TraceRef` (path + content fingerprint)
    or a :class:`~repro.workloads.SynthRef` (a synthesized workload's
    generator spec).  The recipe then pickles without records, the
    reference's fingerprint joins the cache key exactly as the
    in-memory workload's would, and :meth:`execute` resolves it in the
    executing process: it opens and fingerprint-verifies the trace, or
    synthesizes the workload.
    """

    workload: Workload
    scheme: str
    config: SystemConfig
    policy: str = "lru"
    scheduling: str = "timing"
    scheme_kwargs: tuple = ()
    policy_kwargs: tuple = ()

    def describe(self) -> str:
        """Canonical JSON description -- the hash preimage of :meth:`key`.

        ``json.dumps(..., sort_keys=True)`` of the recipe's fields with
        the config's dict form under ``"config"``.  That key sorts first,
        so the config's memoised JSON text opens the object and the
        rest follows as ``json.dumps`` would write it."""
        from repro.config_io import _config_json

        rest = json.dumps(
            {
                "version": CACHE_VERSION,
                "workload": self.workload.fingerprint(),
                "scheme": self.scheme,
                "policy": self.policy,
                "scheduling": self.scheduling,
                "scheme_kwargs": list(self.scheme_kwargs),
                "policy_kwargs": list(self.policy_kwargs),
            },
            sort_keys=True,
        )
        return '{"config": ' + _config_json(self.config) + ", " + rest[1:]

    def key(self) -> str:
        """Stable content hash identifying this recipe across processes,
        sessions and machines (cached after the first call)."""
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = hashlib.sha256(self.describe().encode()).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def config_digest(self) -> str:
        """The ledger's :func:`~repro.obs.ledger.config_digest` of this
        recipe's config (cached after the first call, like :meth:`key`)."""
        cached = getattr(self, "_config_digest", None)
        if cached is None:
            cached = ledger.config_digest(self.config)
            object.__setattr__(self, "_config_digest", cached)
        return cached

    def execute(self, **run) -> SimResult:
        """Run the simulation this recipe describes (no caching): the one
        place a run's hierarchy is built.  Keywords (the checkpoint and
        streaming options) pass to :meth:`Simulation.run`."""
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme
        from repro.sim.tracebin import TraceRef, resolve_workload

        workload = resolve_workload(self.workload)
        try:
            if self.config.engine == "fast":
                from repro.sim.fast import FastHierarchy

                hierarchy = FastHierarchy(
                    self.config,
                    self.scheme,
                    llc_policy=self.policy,
                    scheme_kwargs=dict(self.scheme_kwargs) or None,
                    policy_kwargs=dict(self.policy_kwargs) or None,
                )
            else:
                scheme_kwargs = dict(self.scheme_kwargs)
                oracle = None
                if needs_oracle(self.scheme, self.policy):
                    oracle = _oracle_for(workload)
                    if self.scheme == "ziv:oracle":
                        scheme_kwargs["oracle"] = oracle
                hierarchy = CacheHierarchy(
                    self.config,
                    make_scheme(self.scheme, **scheme_kwargs),
                    llc_policy=self.policy,
                    oracle=oracle,
                    policy_kwargs=dict(self.policy_kwargs) or None,
                )
            # Instrumentation comes from the config (and therefore from
            # the cache key) alone: REPRO_AUDIT is never consulted inside
            # a worker, or an audited result could be stored under an
            # unaudited key.
            return Simulation(
                hierarchy,
                workload,
                scheduling=self.scheduling,
                llc_policy_name=self.policy,
            ).run(**run)
        finally:
            # Close only what resolving opened: a trace file.  A
            # synthesized workload holds nothing to close.
            if isinstance(self.workload, TraceRef):
                workload.close()


def needs_oracle(scheme: str, policy: str) -> bool:
    """Whether a run needs its workload's next-use oracle: a Belady LLC
    (the I-MIN study) or the oracle ZIV design (paper Section VI).  The
    oracle is only defined on the canonical lock-step stream (paper
    footnote 2), so :func:`make_recipe` and
    :func:`~repro.config_io.recipe_from_dict` make such a run lock-step
    whatever scheduling it asked for."""
    return policy == "belady" or scheme == "ziv:oracle"


def make_recipe(
    workload: Workload,
    scheme: str,
    policy: str = "lru",
    scheduling: str = "timing",
    config: Optional[SystemConfig] = None,
    l2: str = "256KB",
    llc_scale: int = 1,
    cores: int = 8,
    directory_mode: str = "mesi",
    directory_factor: float = 2.0,
    scheme_kwargs: Optional[dict] = None,
    policy_kwargs: Optional[dict] = None,
    audit=None,
    telemetry=None,
) -> RunRecipe:
    """Build a :class:`RunRecipe` with the same defaults the experiment
    modules use.

    ``config`` wins when given; otherwise a scaled configuration is built
    from the ``l2``/``cores``/directory knobs.  A run that
    :func:`needs_oracle` is lock-step.

    ``audit`` (AuditParams or a spec string, default: the ``REPRO_AUDIT``
    environment variable, else the config's own ``audit`` section) is
    resolved *here*, at recipe-construction time, and baked into the
    config -- and therefore into the recipe's cache key.  ``telemetry``
    (TelemetryParams or a spec string, default: the config's
    ``telemetry`` section) is baked in the same way."""
    from repro.params import scaled_config
    from repro.sim.audit import resolve_audit
    from repro.sim.telemetry import resolve_telemetry

    if config is None:
        config = scaled_config(
            l2,
            cores=cores,
            directory_mode=directory_mode,
            directory_factor=directory_factor,
            llc_scale=llc_scale,
        )
    audit_params = resolve_audit(audit, config.audit)
    if audit_params != config.audit:
        config = config.replace(audit=audit_params)
    telemetry_params = resolve_telemetry(telemetry, config.telemetry)
    if telemetry_params != config.telemetry:
        config = config.replace(telemetry=telemetry_params)
    if needs_oracle(scheme, policy):
        scheduling = "lockstep"
    return RunRecipe(
        workload=workload,
        scheme=scheme,
        config=config,
        policy=policy,
        scheduling=scheduling,
        scheme_kwargs=tuple(sorted((scheme_kwargs or {}).items())),
        policy_kwargs=tuple(sorted((policy_kwargs or {}).items())),
    )


# ---------------------------------------------------------------------------
# In-process memo + next-use-oracle memo
# ---------------------------------------------------------------------------

#: Bounds on the in-process memos, oldest entry out first, so a
#: long-lived process (the simulation service) stays bounded whatever
#: it resolves.  The result memo holds more than the union of every
#: table's grid at quick scale (748 recipes), so a table resolving runs
#: another already resolved still hits it; an evicted key comes back
#: from the disk cache as a ``disk`` hit (with ``REPRO_CACHE=off``, it
#: runs again).  One oracle serves every Belady run of one workload
#: while it is kept.  Fig. 2 runs each mix's Belady recipe at three L2
#: sizes with every other mix between, so it rebuilds each oracle per
#: size once it has more mixes than this bound (24 at standard scale,
#: 72 at full).  That trade is measured: a build took 19 ms (standard)
#: and 35 ms (full), within the run-to-run noise of the 0.76 s and
#: 1.9 s Belady runs that need it, while a kept oracle holds 1.5 MB
#: and 3.3 MB, about the size of its mix.
MEMO_ENTRIES = 1024
ORACLE_MEMO_ENTRIES = 8

_MEMO: OrderedDict = OrderedDict()  # recipe key -> SimResult
_ORACLE_MEMO: OrderedDict = OrderedDict()  # fingerprint -> NextUseOracle


def _remember(memo: OrderedDict, key, value, bound: int) -> None:
    """File ``value`` under ``key``, dropping the oldest entries past
    ``bound``.  Each drop is one ``popitem`` call, so threads that run
    recipes side by side (a thread-mode service) never see an entry
    half gone."""
    memo[key] = value
    while len(memo) > bound:
        memo.popitem(last=False)


def _oracle_for(workload: Workload):
    from repro.cache.replacement import NextUseOracle
    from repro.sim.trace import lockstep_stream

    fp = workload.fingerprint()
    oracle = _ORACLE_MEMO.get(fp)
    if oracle is None:
        oracle = NextUseOracle(lockstep_stream(workload))
        _remember(_ORACLE_MEMO, fp, oracle, ORACLE_MEMO_ENTRIES)
    return oracle


def clear_memo() -> None:
    """Drop the in-process memo (the disk cache is untouched)."""
    _MEMO.clear()
    _ORACLE_MEMO.clear()


# ---------------------------------------------------------------------------
# Persistent disk cache
# ---------------------------------------------------------------------------


def cache_enabled() -> bool:
    """The disk cache is on unless REPRO_CACHE is off/0/false/no."""
    return os.environ.get("REPRO_CACHE", "on").strip().lower() not in (
        "off", "0", "false", "no",
    )


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR") or _DEFAULT_CACHE_DIR)


def _cache_path(key: str) -> Path:
    return cache_dir() / f"{key}.pkl"


def load_result(key: str) -> Optional[SimResult]:
    """Fetch one result from disk; a corrupt/unreadable entry is dropped
    and reported as a miss."""
    path = _cache_path(key)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def store_result(key: str, result: SimResult) -> None:
    """Atomically persist one result (tmp file + rename, so concurrent
    writers of the same key are safe)."""
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, _cache_path(key))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_info() -> dict:
    """Summary of the disk cache: location, entry count, total bytes."""
    directory = cache_dir()
    entries = 0
    size = 0
    if directory.is_dir():
        for p in directory.glob("*.pkl"):
            entries += 1
            try:
                size += p.stat().st_size
            except OSError:
                pass
    return {
        "path": str(directory.resolve()),
        "enabled": cache_enabled(),
        "entries": entries,
        "bytes": size,
    }


def clear_result_cache() -> int:
    """Delete every cached result; returns the number of entries removed."""
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for p in directory.glob("*.pkl"):
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
    return removed


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def lookup_result(key: str) -> "Optional[tuple[SimResult, str]]":
    """Resolve one recipe key through the *storage* layers only: the
    in-process memo, then (when enabled) the disk cache.  Returns
    ``(result, source)`` with source ``"memo"`` or ``"disk"``, or None
    on a miss.  No simulation, no ledger append -- callers that resolve
    a submission through this layer own the provenance record (see
    :func:`record_resolution`).  Disk hits are promoted into the memo
    (at most :data:`MEMO_ENTRIES` results, oldest out first)."""
    result = _MEMO.get(key)
    if result is not None:
        return result, "memo"
    if cache_enabled():
        result = load_result(key)
        if result is not None:
            _remember(_MEMO, key, result, MEMO_ENTRIES)
            return result, "disk"
    return None


def publish_result(key: str, result: SimResult) -> None:
    """Write one completed result back to both storage layers: the disk
    cache (when enabled) first, then the in-process memo.  A failed
    write (a full disk) raises and leaves the result in neither, so
    nothing serves a result the cache does not hold."""
    if cache_enabled():
        store_result(key, result)
    _remember(_MEMO, key, result, MEMO_ENTRIES)


def record_resolution(
    recipe: RunRecipe,
    key: str,
    result: SimResult,
    source: str,
    wall_s: float,
    resumed_from: str = "",
) -> bool:
    """Append the run-ledger provenance record for one resolved
    submission: ``"run"`` for a fresh execution, ``"memo"``/``"disk"``
    for a deduplicated or cache-resolved one, ``"direct"`` for a
    :func:`~repro.sim.engine.run_workload` call (``resumed_from`` names
    the checkpoint it continued from).  Best-effort (the ledger
    must never fail a run): returns False when the ledger is on but
    did not get the record (a full disk), True otherwise.  Only ever
    called in the parent process: pool workers return their wall time
    instead, so each resolution is recorded exactly once.
    :func:`run_many`, :func:`~repro.sim.engine.run_workload` and the
    simulation service all record through this call; the service counts
    the misses."""
    try:
        if not ledger.ledger_enabled():
            return True
        return ledger.append_record(ledger.record_from_result(
            recipe_key=key,
            result=result,
            source=source,
            wall_s=wall_s,
            engine=recipe.config.engine,
            config_digest=recipe.config_digest(),
            workload_fingerprint=recipe.workload.fingerprint(),
            scheduling=recipe.scheduling,
            trace_path=str(getattr(recipe.workload, "path", "") or ""),
            resumed_from=resumed_from,
        ))
    except Exception:
        return False


def _execute_recipe(
    item: "tuple[str, RunRecipe]",
) -> "tuple[str, SimResult, float]":
    """Execute one ``(key, recipe)`` miss: rebuild the hierarchy from the
    recipe and run.

    Module-level (not a closure), so a process pool pickles it by name
    and the worker runs the execution layer it inherited: ``run_many``'s
    workers reach it through :func:`_run_pending`, and the simulation
    service submits it directly.  Returns ``(key, result, wall_s)``: the
    wall time rides back to the parent, which owns all ledger appends
    (workers never touch the ledger, so each resolution is recorded
    exactly once)."""
    key, recipe = item
    t0 = time.perf_counter()  # repro-lint: ignore[determinism]
    result = recipe.execute()
    wall_s = time.perf_counter() - t0  # repro-lint: ignore[determinism]
    return key, result, wall_s


#: In a :func:`run_many` pool worker: the ``(key, recipe)`` misses of
#: the call that built the pool, adopted once by :func:`_adopt_pending`.
_PENDING: "list[tuple[str, RunRecipe]]" = []


def _adopt_pending(items: "list[tuple[str, RunRecipe]]") -> None:
    """Pool initializer: keep the call's misses for this worker's tasks
    (under ``spawn``, one pickle per worker stores each shared trace
    once)."""
    global _PENDING
    _PENDING = items


def _run_pending(index: int) -> "tuple[str, SimResult, float]":
    """Pool task: execute the adopted miss at ``index``.

    ``_execute_recipe`` is looked up at call time, so a patched
    execution layer reaches the workers that inherit it."""
    return _execute_recipe(_PENDING[index])


def process_pool(workers: int, initializer=None, initargs: tuple = ()):
    """A ``concurrent.futures`` process pool of ``workers`` processes,
    started by the ``REPRO_MP_START`` method (default ``fork`` where
    available, else ``spawn``).  The one pool builder: :func:`run_many`
    builds a pool per call, the simulation service one per server."""
    # Imported here: it loads logging, whose memory a process that
    # never fans out (a streamed run, a warm sweep) need not pay for.
    import concurrent.futures

    available = multiprocessing.get_all_start_methods()
    method = os.environ.get("REPRO_MP_START")
    if not method:
        method = "fork" if "fork" in available else "spawn"
    elif method not in available:
        raise ValueError(
            f"REPRO_MP_START={method!r} not available; "
            f"choose from {available}"
        )
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=initializer,
        initargs=initargs,
    )


def _fan_out(
    items: "list[tuple[str, RunRecipe]]",
    n_jobs: int,
    finished: Callable[["tuple[str, SimResult, float]"], None],
) -> None:
    """Run ``items`` on a process pool, passing each ``(key, result,
    wall_s)`` to ``finished`` as it completes.  On the first error (a
    failing recipe, or ``BrokenProcessPool`` when a worker dies), tasks
    not yet started are cancelled, running ones finish and are passed
    on too, and the error is re-raised."""
    import concurrent.futures

    with process_pool(min(n_jobs, len(items)), initializer=_adopt_pending,
                      initargs=(items,)) as pool:
        futures: "list[concurrent.futures.Future]" = []
        handled = set()
        try:
            futures.extend(pool.submit(_run_pending, i)
                           for i in range(len(items)))
            for future in concurrent.futures.as_completed(futures):
                handled.add(future)
                finished(future.result())
        except BaseException:
            # Waits for the running tasks; cancelled ones never finish,
            # so they must not be waited on.
            pool.shutdown(cancel_futures=True)
            for future in futures:
                if (future not in handled and not future.cancelled()
                        and future.exception() is None):
                    finished(future.result())
            raise


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: None/1 -> serial, 0 or negative ->
    one worker per CPU."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_many(
    recipes: Sequence[RunRecipe],
    jobs: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    heartbeat=None,
) -> list[SimResult]:
    """Resolve every recipe and return the results in submission order.

    One path for every ``jobs`` value.  Recipes already in the memo or
    the disk cache resolve first.  The unique misses then run: in this
    process when ``jobs`` is None/1 or there is only one, otherwise on a
    process pool of ``jobs`` workers (``jobs<=0`` means one per CPU).
    Workers are pure functions of their recipe, so the output is
    bit-identical whatever ``jobs`` is.  Each fresh result is stored as
    it completes; if a recipe fails, a worker dies or a store fails, the
    call raises once every completed result is stored.

    Every recipe is one resolution: one run-ledger record and, when
    ``heartbeat`` is given, one :class:`~repro.sim.telemetry.RunProgress`
    (cache-provenance counts, simulated accesses/second, a pessimistic
    ETA; e.g. a :class:`~repro.sim.telemetry.ProgressPrinter`), labelled
    ``labels[i]`` or the recipe's scheme/policy/workload.  A duplicate
    recipe (same key) shares its primary's result and resolves as
    ``"memo"`` right after it."""
    from repro.sim.telemetry import ProgressTracker

    n_jobs = resolve_jobs(jobs)
    tracker = (
        ProgressTracker(len(recipes), n_jobs) if heartbeat is not None
        else None
    )
    keys = [r.key() for r in recipes]
    out: "list[Optional[SimResult]]" = [None] * len(recipes)

    def resolved(i: int, result: SimResult, source: str,
                 wall_s: float = 0.0) -> None:
        recipe = recipes[i]
        out[i] = result
        record_resolution(recipe, keys[i], result, source, wall_s)
        if tracker is not None:
            label = (labels[i] if labels is not None else
                     f"{recipe.scheme}/{recipe.policy}: "
                     f"{recipe.workload.name}")
            heartbeat(tracker.advance(label, source, result, key=keys[i],
                                      engine=recipe.config.engine))

    # Hits resolve now; each unique miss keeps the indices asking for it.
    pending: "dict[str, list[int]]" = {}
    for i, key in enumerate(keys):
        if key in pending:
            pending[key].append(i)
            continue
        hit = lookup_result(key)
        if hit is not None:
            resolved(i, *hit)
        else:
            pending[key] = [i]

    def finished(completed: "tuple[str, SimResult, float]") -> None:
        # Each result reaches the disk cache and the memo as it arrives,
        # before its ledger record: a failing recipe loses no finished
        # work, and no "run" record lacks its cache entry.
        key, result, wall_s = completed
        publish_result(key, result)
        first, *duplicates = pending[key]
        resolved(first, result, "run", wall_s)
        for i in duplicates:
            resolved(i, result, "memo")

    items = [(key, recipes[indices[0]]) for key, indices in pending.items()]
    if n_jobs <= 1 or len(items) == 1:
        for item in items:
            finished(_execute_recipe(item))
    elif items:
        _fan_out(items, n_jobs, finished)
    return out
